//! Regenerates experiment `t14_adversary` (see EXPERIMENTS.md).
//!
//! Prints the report table and writes it to `BENCH_t14_adversary.json` (in
//! `PP_BENCH_DIR` if set, else the working directory). Run with
//! `PP_PRESET=full` for the scales recorded in EXPERIMENTS.md; the default
//! is the quick preset. The grid itself sweeps **all** engine tiers —
//! every shock and churn measurement runs on agent, dense, packed, turbo,
//! and sharded through the generic `Engine` path.
//!
//! Output follows the result-JSON v1 envelope (EXPERIMENTS.md
//! "Observability"): exit code 0 on success, 2 on schema error. `PP_OBS`
//! selects a recorder sink (`table`/`jsonl`/`json`).
fn main() {
    pp_bench::output::run_bin("t14_adversary", |preset| {
        pp_bench::experiments::adversary::run(preset, 1_400)
    });
}
