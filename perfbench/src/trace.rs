//! The traced run: per-layer metrics.
//!
//! Spans are recorded from this package's own code, around the public
//! function of each layer; the library is not instrumented. The `build`
//! op is rebuilt from the pipeline's public parts (collect → smooth →
//! primary → scavenger → verify ×3 → lint) and must reproduce
//! `pgo_pipeline`'s fingerprint. The serving and batch layers are timed
//! by probes that call one layer at a time on the same inputs the
//! workloads use.
//!
//! The workload under test alternates untraced and traced passes, so
//! the tracing overhead (traced minus untraced op time) is measured under
//! the same host conditions. Every per-layer metric is reported whatever
//! the workload; layers the workload does not exercise come from a fixed
//! number of probe passes. Spans stay in memory and are written out as
//! JSON lines when the run ends.

use crate::common::{
    metric, ns_since, sum_of_percentiles, Budget, Metric, SimCounters, HOST_PERCENTILE,
};
use crate::serve::{self, dual_opts, Serve, Service};
use crate::suite::{self, batch_layer_counts, Suite, SuiteOp, SuiteProgram};
use crate::worlds::{pipeline_opts, MAX_STEPS, PROF_ID};
use crate::Workload;
use reach_core::{percentiles, run_dual_mode, Journal, JournalRecord, Rung};
use reach_instrument::{
    instrument_primary, instrument_scavenger, lint_program, smooth_profile, validate_rewrite,
    verify_rewrite_map,
};
use reach_profile::collect;
use reach_sim::{Exit, HwEvent, PebsConfig};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// Op the span belongs to (spans of one op share it).
    pub op: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Host ns since the tracer started.
    pub start_ns: u64,
    /// Host ns since the tracer started.
    pub end_ns: u64,
}

/// An in-memory span recorder.
pub struct Tracer {
    t0: Instant,
    /// Every span, in open order.
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Opens a span; returns its index.
    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let now = ns_since(self.t0);
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`; returns its duration in ns.
    pub fn close(&mut self, id: usize) -> u64 {
        let s = &mut self.spans[id];
        s.end_ns = ns_since(self.t0);
        s.end_ns - s.start_ns
    }

    /// Runs `f` inside a span; returns its result and duration.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: usize,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let id = self.open(name, op, Some(parent));
        let r = f();
        (r, self.close(id))
    }

    /// Host ns since the tracer started.
    pub fn now(&self) -> u64 {
        ns_since(self.t0)
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"name\":\"{}\",\"op\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, parent, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// The layers of the rebuilt pipeline, in call order.
pub const BUILD_LAYERS: [&str; 6] = [
    "profile.collect",
    "instrument.smooth",
    "instrument.primary",
    "instrument.scavenger",
    "instrument.verify",
    "instrument.lint",
];

/// Deterministic counts of one rebuilt pipeline.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BuildCounts {
    /// Instructions the profiling run retired.
    pub sim_insts: u64,
    /// PEBS samples collected.
    pub samples: u64,
    /// LBR branch records folded into the profile.
    pub lbr_records: u64,
    /// Primary sites instrumented.
    pub sites: u64,
    /// Scavenger yields inserted.
    pub yields: u64,
    /// Rewrite maps proven equivalent (three per build: primary,
    /// scavenger, composed).
    pub maps: u64,
}

impl BuildCounts {
    fn add(&mut self, o: &BuildCounts) {
        self.sim_insts += o.sim_insts;
        self.samples += o.samples;
        self.lbr_records += o.lbr_records;
        self.sites += o.sites;
        self.yields += o.yields;
        self.maps += o.maps;
    }
}

/// One traced `build` op.
pub struct TracedBuild {
    /// Matched the reference fingerprint, lint clean, verified, checksum
    /// and counters reproduced.
    pub ok: bool,
    /// Host ns of the whole op (the root span).
    pub root_ns: u64,
    /// Host ns per [`BUILD_LAYERS`] entry.
    pub layer_ns: [u64; 6],
    /// Counts.
    pub counts: BuildCounts,
}

/// `pgo_pipeline`, rebuilt from its public parts with a span around
/// each layer. The syntactic `validate_rewrite` checks run unspanned and
/// fall into the remainder.
pub fn traced_build_op(p: &SuiteProgram, tr: &mut Tracer, op: u64) -> TracedBuild {
    let opts = pipeline_opts();
    let prog = &p.world.prog;
    let mut m = p.world.pristine.clone();
    let mut ctx = [p.world.prof.make_context(PROF_ID)];
    let mut ns = [0u64; 6];
    let mut counts = BuildCounts::default();
    let root = tr.open("build.op", op, None);
    let out = (|| {
        let (raw, d) = tr.span(BUILD_LAYERS[0], op, root, || {
            collect(&mut m, prog, &mut ctx, &opts.collector)
        });
        ns[0] += d;
        let (raw, _cost) = raw.ok()?;
        counts.sim_insts = m.counters.instructions;
        counts.samples = raw.total_samples;
        counts.lbr_records = raw.blocks.edges.values().sum();
        let (profile, d) = tr.span(BUILD_LAYERS[1], op, root, || smooth_profile(&raw, prog));
        ns[1] += d;
        let mcfg = m.cfg.clone();
        let (r, d) = tr.span(BUILD_LAYERS[2], op, root, || {
            instrument_primary(prog, &profile, &mcfg, &opts.primary)
        });
        ns[2] += d;
        let (p1, r1) = r.ok()?;
        counts.sites = r1.sites_selected() as u64;
        validate_rewrite(prog, &p1, &r1.pc_map.origin, false).ok()?;
        let (v, d) = tr.span(BUILD_LAYERS[4], op, root, || {
            verify_rewrite_map(prog, &p1, &r1.pc_map, &opts.lint).ok()
        });
        ns[4] += d;
        counts.maps += u64::from(v);
        let sopts = opts.scavenger.as_ref()?;
        let origin1 = r1.pc_map.origin.clone();
        let (r, d) = tr.span(BUILD_LAYERS[3], op, root, || {
            instrument_scavenger(&p1, Some((&profile, &origin1)), &mcfg, sopts)
        });
        ns[3] += d;
        let (p2, r2) = r.ok()?;
        counts.yields = r2.yields_inserted as u64;
        validate_rewrite(&p1, &p2, &r2.pc_map.origin, false).ok()?;
        let composed_map = r1.pc_map.then(&r2.pc_map);
        for (from, map) in [(&p1, &r2.pc_map), (prog, &composed_map)] {
            let (v, d) = tr.span(BUILD_LAYERS[4], op, root, || {
                verify_rewrite_map(from, &p2, map, &opts.lint).ok()
            });
            ns[4] += d;
            counts.maps += u64::from(v);
        }
        let origin: Vec<Option<usize>> = r2
            .pc_map
            .origin
            .iter()
            .map(|&o| o.and_then(|q| origin1[q]))
            .collect();
        let (lint, d) = tr.span(BUILD_LAYERS[5], op, root, || {
            lint_program(&p2, Some(&origin), &opts.lint)
        });
        ns[5] += d;
        Some(counts.maps == 3 && lint.is_clean() && p2.fingerprint() == p.fingerprint)
    })();
    let root_ns = tr.close(root);
    let ok = out == Some(true)
        && p.world.prof.checksum_ok(&ctx[0])
        && SimCounters::of(&m) == p.build_ref;
    TracedBuild {
        ok,
        root_ns,
        layer_ns: ns,
        counts,
    }
}

/// Fixed probe sizes for the layers the workload under test does not
/// exercise, and for the single-layer probes.
const PROBE_PASSES: u64 = 5;
const DUAL_PROBE_JOBS: usize = 500;
const INST_PROBE_REPS: usize = 40;
const JOURNAL_PROBE_REPS: usize = 200;

/// The traced run's state: the recorder, the checked-op tally, and the
/// untraced and traced host times of the workload under test.
struct Run {
    w: Workload,
    budget: Budget,
    tr: Tracer,
    op: u64,
    attempted: u64,
    failed: u64,
    /// Per group, untraced per-op ns.
    untraced: Vec<Vec<u64>>,
    /// Per group, traced per-op ns.
    traced: Vec<Vec<u64>>,
    /// Per group, traced op ns not covered by a layer span.
    remainder: Vec<Vec<u64>>,
    /// Untraced ops and the host seconds their passes took.
    untraced_ops: u64,
    untraced_wall_s: f64,
}

impl Run {
    fn count(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// The workload's own budget for its layers, a fixed probe size for
    /// the others.
    fn budget_for(&self, layers_of: Workload, probe: u64) -> Budget {
        if self.w == layers_of {
            self.budget
        } else {
            Budget::Passes(probe)
        }
    }

    /// One untraced pass of `op` over the suite, when it is the
    /// workload under test.
    fn untraced_suite_pass(&mut self, suite: &Suite, op: SuiteOp) {
        let t = Instant::now();
        for (i, p) in suite.programs.iter().enumerate() {
            let r = op.run(p);
            self.count(r.ok);
            self.untraced[i].push(r.ns);
        }
        self.untraced_ops += suite.programs.len() as u64;
        self.untraced_wall_s += t.elapsed().as_secs_f64();
    }

    fn next_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }
}

/// The traced run's result.
pub struct TraceReport {
    /// Every `per_layer` metric, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Checked ops attempted.
    pub attempted: u64,
    /// Checked ops failed.
    pub failed: u64,
    /// The recorded spans.
    pub tracer: Tracer,
}

/// Runs workload `w` traced for `budget`, alternating untraced and
/// traced passes, and probes every layer it does not exercise.
pub fn run(w: Workload, seed: u64, budget: Budget) -> TraceReport {
    let suite = suite::setup(seed);
    let serve = serve::setup(seed);
    let groups = if w == Workload::Serve {
        1
    } else {
        suite.programs.len()
    };
    let mut r = Run {
        w,
        budget,
        tr: Tracer::default(),
        op: 0,
        attempted: 0,
        failed: 0,
        untraced: vec![Vec::new(); groups],
        traced: vec![Vec::new(); groups],
        remainder: vec![Vec::new(); groups],
        untraced_ops: 0,
        untraced_wall_s: 0.0,
    };
    let mut metrics = build_layers(&mut r, &suite);
    let (serve_metrics, fleet_counters) = serve_layers(&mut r, &serve);
    metrics.extend(serve_metrics);
    metrics.extend(batch_layers(&mut r, &suite, &serve));
    let counters = match w {
        Workload::Build => suite::sim_e2e(&suite, SuiteOp::Build).1,
        Workload::Batch => suite::sim_e2e(&suite, SuiteOp::Batch).1,
        Workload::Serve => fleet_counters,
    };
    metrics.extend(counters.layer_metrics());

    let untraced = sum_of_percentiles(&r.untraced, HOST_PERCENTILE);
    let traced = sum_of_percentiles(&r.traced, HOST_PERCENTILE);
    metrics.extend([
        metric("trace.overhead_ms", traced - untraced, "ms"),
        metric(
            "trace.remainder_ms",
            sum_of_percentiles(&r.remainder, HOST_PERCENTILE),
            "ms",
        ),
        metric("trace.spans", r.tr.spans.len() as f64, "count"),
        metric(
            "e2e.host_ms_p10",
            sum_of_percentiles(&r.untraced, 0.10),
            "ms",
        ),
        metric(
            "e2e.host_ms_p50",
            sum_of_percentiles(&r.untraced, 0.50),
            "ms",
        ),
        metric(
            "e2e.host_ms_p90",
            sum_of_percentiles(&r.untraced, 0.90),
            "ms",
        ),
        metric(
            "e2e.ops_per_s",
            r.untraced_ops as f64 / r.untraced_wall_s,
            "1/s",
        ),
    ]);
    TraceReport {
        metrics,
        attempted: r.attempted,
        failed: r.failed,
        tracer: r.tr,
    }
}

/// The build layers, from the rebuilt pipeline.
fn build_layers(r: &mut Run, suite: &Suite) -> Vec<Metric> {
    let n = suite.programs.len();
    let mut layer_ns = vec![vec![Vec::new(); BUILD_LAYERS.len()]; n];
    let mut counts = BuildCounts::default();
    let budget = r.budget_for(Workload::Build, PROBE_PASSES);
    let start = Instant::now();
    let mut passes = 0;
    while budget.more(start, passes) {
        if r.w == Workload::Build {
            r.untraced_suite_pass(suite, SuiteOp::Build);
        }
        counts = BuildCounts::default();
        for (i, p) in suite.programs.iter().enumerate() {
            let op = r.next_op();
            let t = traced_build_op(p, &mut r.tr, op);
            r.count(t.ok);
            for (l, &d) in t.layer_ns.iter().enumerate() {
                layer_ns[i][l].push(d);
            }
            if r.w == Workload::Build {
                r.traced[i].push(t.root_ns);
                r.remainder[i].push(t.root_ns - t.layer_ns.iter().sum::<u64>());
            }
            counts.add(&t.counts);
        }
        passes += 1;
    }
    let ms = |l: usize| -> f64 {
        let groups: Vec<Vec<u64>> = layer_ns.iter().map(|g| g[l].clone()).collect();
        sum_of_percentiles(&groups, HOST_PERCENTILE)
    };
    vec![
        metric("profile.collect.host_ms", ms(0), "ms"),
        metric(
            "profile.collect.sim_insts",
            counts.sim_insts as f64,
            "insts",
        ),
        metric("profile.collect.samples", counts.samples as f64, "count"),
        metric(
            "profile.collect.lbr_records",
            counts.lbr_records as f64,
            "count",
        ),
        metric("instrument.smooth.host_ms", ms(1), "ms"),
        metric("instrument.primary.host_ms", ms(2), "ms"),
        metric("instrument.primary.sites", counts.sites as f64, "count"),
        metric("instrument.scavenger.host_ms", ms(3), "ms"),
        metric("instrument.scavenger.yields", counts.yields as f64, "count"),
        metric("instrument.verify.host_ms", ms(4), "ms"),
        metric("instrument.verify.maps", counts.maps as f64, "count"),
        metric("instrument.lint.host_ms", ms(5), "ms"),
    ]
}

/// The serving layers: fleet runs with one span per job (from the
/// service's callback stamps), and the dual-mode probe in the same
/// passes, so the supervisor + fleet overhead (job minus dual-mode job)
/// compares like with like. Also returns the first fleet run's
/// simulated counters.
fn serve_layers(r: &mut Run, serve: &Serve) -> (Vec<Metric>, SimCounters) {
    let budget = r.budget_for(Workload::Serve, 1);
    let mut job_ns = Vec::new();
    let mut dual_ns = Vec::new();
    let mut first: Option<serve::FleetRun> = None;
    let start = Instant::now();
    let mut passes = 0;
    while budget.more(start, passes) {
        if r.w == Workload::Serve {
            let t = Instant::now();
            let run = serve::fleet_run(serve);
            r.attempted += serve::arrivals_per_run();
            r.failed += serve::failed_arrivals(&run, first.as_ref());
            r.untraced[0].extend(run.job_ns());
            r.untraced_ops += run.stamps.len() as u64;
            r.untraced_wall_s += t.elapsed().as_secs_f64();
        }
        let op = r.next_op();
        let run_span = r.tr.open("core.fleet.run", op, None);
        let base = r.tr.now();
        let run = serve::fleet_run(serve);
        r.tr.close(run_span);
        for w in run.stamps.windows(2) {
            r.tr.spans.push(Span {
                name: "serve.job",
                op,
                parent: Some(run_span),
                start_ns: base + w[0],
                end_ns: base + w[1],
            });
        }
        r.attempted += serve::arrivals_per_run();
        r.failed += serve::failed_arrivals(&run, first.as_ref());
        job_ns.extend(run.job_ns());
        dual_ns.extend(dualmode_probe(serve, r));
        first.get_or_insert(run);
        passes += 1;
    }
    let first = first.expect("at least one fleet run");
    let job = percentiles(&job_ns, &[HOST_PERCENTILE])[0];
    let dual = percentiles(&dual_ns, &[HOST_PERCENTILE])[0];
    if r.w == Workload::Serve {
        // No span inside a job: all of it but the dual-mode run is
        // supervisor and fleet work.
        r.remainder[0] = job_ns.iter().map(|&j| j.saturating_sub(dual)).collect();
        r.traced[0] = job_ns;
    }
    let (job_ms, dual_ms) = (job as f64 / 1e6, dual as f64 / 1e6);
    let step_ns = ns_per_inst_probe(serve, true, r);
    let (append_us, records, bytes) = journal_probe(serve);
    let rep = &first.report;
    let metrics = vec![
        metric("sim.step.ns_per_inst", step_ns, "ns"),
        metric("core.dualmode.host_ms", dual_ms, "ms"),
        metric("core.supervisor_fleet.overhead_ms", job_ms - dual_ms, "ms"),
        metric("core.journal.append_us", append_us, "us"),
        metric("core.journal.records", records as f64, "count"),
        metric("core.journal.bytes", bytes as f64, "bytes"),
        metric("core.fleet.forwarded", rep.forwarded as f64, "count"),
        metric("core.fleet.retries", rep.retries as f64, "count"),
        metric("core.fleet.forward_shed", rep.forward_shed as f64, "count"),
    ];
    (metrics, first.counters)
}

/// The batch layers: executor spans, block-cache and switch counts of
/// one pass, and the superblock tier's host ns per instruction.
fn batch_layers(r: &mut Run, suite: &Suite, serve: &Serve) -> Vec<Metric> {
    let budget = r.budget_for(Workload::Batch, PROBE_PASSES);
    let mut counts = Vec::new();
    let start = Instant::now();
    let mut passes = 0;
    while budget.more(start, passes) {
        if r.w == Workload::Batch {
            r.untraced_suite_pass(suite, SuiteOp::Batch);
        }
        let mut results = Vec::new();
        for (i, p) in suite.programs.iter().enumerate() {
            let op = r.next_op();
            let t = suite::batch_op_traced(p, Some((&mut r.tr, op)));
            r.count(t.ok);
            if r.w == Workload::Batch {
                let exec = r.tr.spans.last().expect("the op's executor span");
                let exec_ns = exec.end_ns - exec.start_ns;
                r.traced[i].push(t.ns);
                r.remainder[i].push(t.ns.saturating_sub(exec_ns));
            }
            results.push(t);
        }
        counts = batch_layer_counts(&results);
        passes += 1;
    }
    let mut metrics = vec![metric(
        "sim.blocks.ns_per_inst",
        ns_per_inst_probe(serve, false, r),
        "ns",
    )];
    metrics.extend(counts);
    metrics
}

/// `run_dual_mode` on shard 0's job sequence, outside the supervisor,
/// with the in-situ sampler armed per job as the supervisor arms it.
/// Returns per-job host ns.
fn dualmode_probe(s: &Serve, r: &mut Run) -> Vec<u64> {
    let prog = &s.world.initial.prog;
    let live = &s.world.live[0];
    let mut m = s.world.pristine[0].clone();
    let mut svc = Service::new(&s.world);
    let mut out = Vec::with_capacity(DUAL_PROBE_JOBS);
    for job in 0..DUAL_PROBE_JOBS {
        let i = job * 3;
        let mut primary = svc.next_live(0);
        let mut scavs = [svc.next_live(0), svc.next_live(0)];
        let sampler = m.add_sampler(PebsConfig {
            event: HwEvent::LoadL2Miss,
            period: s.opts.sup.insitu_period,
            skid: 0,
            buffer_capacity: 65_536,
        });
        let op = r.next_op();
        let id = r.tr.open("core.dualmode", op, None);
        let rep = run_dual_mode(&mut m, prog, &mut primary, prog, &mut scavs, &dual_opts());
        out.push(r.tr.close(id));
        m.take_samples(sampler);
        m.samplers.clear();
        let ok = rep.is_ok_and(|d| d.primary_latency.is_some())
            && live[i % live.len()].checksum_ok(&primary);
        r.count(ok);
    }
    out
}

/// Host ns per simulated instruction of one live job run to completion
/// on a fresh clone, with (`armed`: the per-instruction tier) or without
/// (the superblock tier) a PEBS sampler, at [`HOST_PERCENTILE`] over
/// reps.
fn ns_per_inst_probe(s: &Serve, armed: bool, r: &mut Run) -> f64 {
    let prog = &s.world.initial.prog;
    let setup = &s.world.live[0][0];
    let mut v = Vec::with_capacity(INST_PROBE_REPS);
    for _ in 0..INST_PROBE_REPS {
        let mut m = s.world.pristine[0].clone();
        if armed {
            m.add_sampler(PebsConfig {
                event: HwEvent::LoadL2Miss,
                period: s.opts.sup.insitu_period,
                skid: 0,
                buffer_capacity: 65_536,
            });
        }
        let mut ctx = setup.make_context(0);
        let t = Instant::now();
        let exit = m.run_to_completion(prog, &mut ctx, MAX_STEPS);
        let ns = ns_since(t);
        r.count(exit == Ok(Exit::Done) && setup.checksum_ok(&ctx));
        v.push(ns as f64 / ctx.stats.instructions.max(1) as f64);
    }
    low(v)
}

/// The [`HOST_PERCENTILE`] of `v` (nearest rank).
fn low(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[((v.len() as f64 * HOST_PERCENTILE).ceil() as usize).saturating_sub(1)]
}

/// Appends one shard's fleet-run journal (the initial deploy plus one
/// epoch advance per epoch) to a fresh journal, repeatedly. Returns the
/// µs per append at [`HOST_PERCENTILE`] over reps, and the records
/// and bytes of one journal.
fn journal_probe(s: &Serve) -> (f64, u64, u64) {
    let fingerprint = s.world.initial.prog.fingerprint();
    let epochs = s.opts.epochs;
    let mut per_append = Vec::with_capacity(JOURNAL_PROBE_REPS);
    let mut last = Journal::new();
    for _ in 0..JOURNAL_PROBE_REPS {
        let mut j = Journal::new();
        let t = Instant::now();
        j.append(
            &JournalRecord::Deploy {
                epoch: 0,
                rung: Rung::FullPgo,
                fingerprint,
            },
            None,
        );
        for epoch in 0..epochs {
            j.append(
                &JournalRecord::EpochAdvance {
                    epoch,
                    next_job: 2 * epoch,
                },
                None,
            );
        }
        per_append.push(ns_since(t) as f64 / (epochs + 1) as f64 / 1e3);
        last = j;
    }
    (
        low(per_append),
        last.stats.appends,
        last.durable_len() as u64,
    )
}
