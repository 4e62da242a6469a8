//! Regenerates experiment `t2_convergence_w` (see EXPERIMENTS.md).
//!
//! Prints the report table and writes it to `BENCH_t2_convergence_w.json` (in
//! `PP_BENCH_DIR` if set, else the working directory). Run with
//! `PP_PRESET=full` for the scales recorded in EXPERIMENTS.md; the default
//! is the quick preset. `PP_ENGINE=agent` forces the per-agent engine for
//! complete-graph measurements (the default is the dense engine).
//!
//! Output follows the result-JSON v1 envelope (EXPERIMENTS.md
//! "Observability"): exit code 0 on success, 2 on schema error. `PP_OBS`
//! selects a recorder sink (`table`/`jsonl`/`json`).
fn main() {
    pp_bench::output::run_bin("t2_convergence_w", |preset| {
        pp_bench::experiments::convergence::run_w_sweep(preset, 200)
    });
}
