//! Regenerates experiment `t8_derandomised` (see EXPERIMENTS.md).
//!
//! Prints the report table and writes it to `BENCH_t8_derandomised.json` (in
//! `PP_BENCH_DIR` if set, else the working directory). Run with
//! `PP_PRESET=full` for the scales recorded in EXPERIMENTS.md; the default
//! is the quick preset. `PP_ENGINE=agent` forces the per-agent engine for
//! complete-graph measurements (the default is the dense engine).
//!
//! Output follows the result-JSON v1 envelope (EXPERIMENTS.md
//! "Observability"): exit code 0 on success, 2 on schema error. `PP_OBS`
//! selects a recorder sink (`table`/`jsonl`/`json`).
fn main() {
    pp_bench::output::run_bin("t8_derandomised", |preset| {
        pp_bench::experiments::derandomised::run(preset, 800)
    });
}
