//! Regenerates experiment `t10_topologies` (see EXPERIMENTS.md).
//!
//! Prints the report table and writes it to `BENCH_t10_topologies.json` (in
//! `PP_BENCH_DIR` if set, else the working directory). Runs on the packed
//! fast-path engine (`pp_engine::PackedSimulator` over CSR/structured
//! topologies): quick preset covers `n = 1024` (the old full scale), full
//! preset `n = 65 536` across all seven families.
//!
//! Output follows the result-JSON v1 envelope (EXPERIMENTS.md
//! "Observability"): exit code 0 on success, 2 on schema error. `PP_OBS`
//! selects a recorder sink (`table`/`jsonl`/`json`).
fn main() {
    pp_bench::output::run_bin("t10_topologies", |preset| {
        pp_bench::experiments::topologies::run(preset, 1000)
    });
}
