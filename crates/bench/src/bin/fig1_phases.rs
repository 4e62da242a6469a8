//! Regenerates experiment `fig1_phases` (see EXPERIMENTS.md).
//!
//! Prints the report table and writes it to `BENCH_fig1_phases.json` (in
//! `PP_BENCH_DIR` if set, else the working directory). Run with
//! `PP_PRESET=full` for the scales recorded in EXPERIMENTS.md; the default
//! is the quick preset. (This experiment runs on the per-agent engine
//! only; `PP_ENGINE` has no effect here.)
//!
//! Output follows the result-JSON v1 envelope (EXPERIMENTS.md
//! "Observability"): exit code 0 on success, 2 on schema error. `PP_OBS`
//! selects a recorder sink (`table`/`jsonl`/`json`).
fn main() {
    pp_bench::output::run_bin("fig1_phases", |preset| {
        pp_bench::experiments::fig1::run(preset, 2024)
    });
}
