//! In-process parallel suite runner: every experiment in the registry
//! over one shared worker pool — one command to regenerate every table
//! in EXPERIMENTS.md *and* every `BENCH_<experiment>.json`.
//!
//! ```sh
//! cargo run --release -p reach-bench --bin exp_all -- --smoke --jobs 4
//! ```
//!
//! Flags: `--smoke` runs the CI-sized cell subset, `--jobs N` sizes the
//! pool (0 = all cores), `--out-dir D` places the BENCH files
//! (`--no-out` disables), `--only a,b` restricts to named experiments
//! (`--only simperf` runs one). A failing cell is recorded in its report
//! and the rest of the suite keeps running; the exit code is non-zero if
//! any cell failed or any experiment-level bound was violated.

fn main() {
    let all = reach_bench::experiments::all();
    let refs: Vec<&dyn reach_bench::Experiment> = all.iter().map(|b| b.as_ref()).collect();
    reach_bench::driver::suite_main(&refs);
}
