//! # reach-bench — experiment harnesses
//!
//! One experiment per table or figure in DESIGN.md §5 / EXPERIMENTS.md.
//! Every experiment is a library module in [`experiments`] implementing
//! the [`Experiment`] trait: a named matrix of deterministic
//! (workload × config) cells. The shared [`driver`] fans cells out
//! across a scoped thread pool (per-cell seeds derived from the cell
//! key), renders the paper table, and writes one machine-readable
//! `BENCH_<experiment>.json` per experiment (see [`report`]).
//!
//! `exp_all` runs the whole registry, or one experiment with
//! `--only <name>`, in-process via [`driver::suite_main`]; `bench_diff`
//! gates two BENCH runs against per-metric regression thresholds (see
//! [`diff`]).
//!
//! Run the CI-sized tier with:
//!
//! ```sh
//! cargo run --release -p reach-bench --bin exp_all -- --smoke --jobs 4
//! ```
//!
//! Criterion benches (`benches/`) measure the host-hardware side: real
//! coroutine resume cost, real thread hand-off cost, and real
//! prefetch-interleaving speedups.

pub mod diff;
pub mod driver;
pub mod experiment;
pub mod experiments;
pub mod harness;
pub mod report;
pub mod table;
pub mod workloads;

pub use diff::{diff_paths, diff_reports, DiffResult, Thresholds};
pub use driver::{run_suite, DriverOptions};
pub use experiment::{cell_seed, Cell, CellMetrics, Experiment, MetricValue, Tier};
pub use harness::{fresh, interleave_checked, pgo_build, RunRow, WorkloadBuilder, LAYOUT_BASE};
pub use report::{BenchReport, CellResult, CellStatus, SCHEMA_VERSION};
pub use table::{cyc_ns, f, pct, Table};
pub use workloads::{workload_builder, WORKLOAD_NAMES};
