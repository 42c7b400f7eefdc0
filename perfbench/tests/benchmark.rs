//! The benchmark's own checks: simulated metrics repeat exactly for a
//! seed and move with it, tracing changes no simulated result, and a
//! wrong expected output is counted as a failure.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (debug builds re-validate every superblock and are slow).

use reach_perfbench::common::{Budget, Metric};
use reach_perfbench::suite::{self, SuiteOp};
use reach_perfbench::{run, serve, Workload};

const ONE_PASS: Budget = Budget::Passes(1);

fn sim_metrics(metrics: &[Metric]) -> Vec<(&'static str, u64)> {
    metrics
        .iter()
        .filter(|m| m.name.starts_with("sim"))
        .map(|m| (m.name, m.value.to_bits()))
        .collect()
}

fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name}"))
        .value
}

#[test]
fn sim_metrics_repeat_for_a_seed_and_differ_across_seeds() {
    for w in Workload::ALL {
        let a = run(w, 1, ONE_PASS, false);
        let b = run(w, 1, ONE_PASS, false);
        let c = run(w, 2, ONE_PASS, false);
        assert_eq!(sim_metrics(&a.metrics), sim_metrics(&b.metrics), "{w:?}");
        assert_ne!(sim_metrics(&a.metrics), sim_metrics(&c.metrics), "{w:?}");
        for r in [&a, &c] {
            assert_eq!(r.failed, 0, "{w:?}");
            assert_eq!(value(&r.metrics, "success_ratio"), 1.0, "{w:?}");
        }
    }
}

#[test]
fn tracing_leaves_every_sim_metric_unchanged() {
    for w in Workload::ALL {
        let untraced = match w {
            Workload::Build => suite::run(1, SuiteOp::Build, ONE_PASS),
            Workload::Batch => suite::run(1, SuiteOp::Batch, ONE_PASS),
            Workload::Serve => serve::run(1, ONE_PASS),
        };
        let traced = run(w, 1, ONE_PASS, true);
        // Every traced op (the rebuilt pipeline included) was checked
        // against the untraced reference counters and fingerprint.
        assert_eq!(traced.failed, 0, "{w:?}");
        let sim: Vec<_> = traced
            .metrics
            .iter()
            .filter(|m| m.name.starts_with("sim.") && !m.name.contains("ns_per_inst"))
            .filter(|m| !m.name.starts_with("sim.blocks"))
            .map(|m| (m.name, m.value))
            .collect();
        let want: Vec<_> = untraced
            .counters
            .layer_metrics()
            .into_iter()
            .map(|m| (m.name, m.value))
            .collect();
        assert_eq!(sim, want, "{w:?}");
    }
}

#[test]
fn a_wrong_expected_output_lowers_success_ratio() {
    let mut s = suite::setup(1);
    let ratio = |s: &suite::Suite, op| {
        suite::e2e(s, op, 0.0, suite::measure(s, op, Budget::Passes(2))).success_ratio()
    };
    assert_eq!(ratio(&s, SuiteOp::Build), 1.0);
    assert_eq!(ratio(&s, SuiteOp::Batch), 1.0);

    s.programs[0].fingerprint ^= 1;
    assert_eq!(
        ratio(&s, SuiteOp::Build),
        0.8,
        "wrong fingerprint on 1 of 5 programs"
    );
    s.programs[1].world.eval[1].expected_checksum ^= 1;
    assert_eq!(
        ratio(&s, SuiteOp::Batch),
        0.8,
        "wrong checksum on 1 of 5 programs"
    );

    let sv = serve::setup(1);
    let first = serve::fleet_run(&sv);
    assert_eq!(serve::failed_arrivals(&first, None), 0);
    let mut wrong = serve::fleet_run(&sv);
    assert_eq!(serve::failed_arrivals(&wrong, Some(&first)), 0);
    wrong.latencies[0].1 += 1;
    assert_eq!(
        serve::failed_arrivals(&wrong, Some(&first)),
        serve::arrivals_per_run(),
        "a run that does not reproduce the reference fails every arrival"
    );
}
