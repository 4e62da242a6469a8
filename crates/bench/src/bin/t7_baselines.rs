//! Regenerates experiment `t7_baselines` (see EXPERIMENTS.md).
//!
//! Prints the report table and writes it to `BENCH_t7_baselines.json` (in
//! `PP_BENCH_DIR` if set, else the working directory). Run with
//! `PP_PRESET=full` for the scales recorded in EXPERIMENTS.md; the default
//! is the quick preset. (This experiment runs on the per-agent engine
//! only; `PP_ENGINE` has no effect here.)
//!
//! Output follows the result-JSON v1 envelope (EXPERIMENTS.md
//! "Observability"): exit code 0 on success, 2 on schema error. `PP_OBS`
//! selects a recorder sink (`table`/`jsonl`/`json`).
fn main() {
    pp_bench::output::run_bin("t7_baselines", |preset| {
        pp_bench::experiments::baselines::run(preset, 700)
    });
}
