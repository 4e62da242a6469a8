//! Regenerates experiment `t15_sbm_blocks` (see EXPERIMENTS.md).
//!
//! Prints the report table and writes it to `BENCH_t15_sbm_blocks.json` (in
//! `PP_BENCH_DIR` if set, else the working directory). Run with
//! `PP_PRESET=full` for the `n = 65 536` scale recorded in EXPERIMENTS.md;
//! the default is the quick preset. `PP_ENGINE` selects the tier (packed
//! by default; `sharded` aligns shards with the community-contiguous
//! blocks).
//!
//! Output follows the result-JSON v1 envelope (EXPERIMENTS.md
//! "Observability"): exit code 0 on success, 2 on schema error. `PP_OBS`
//! selects a recorder sink (`table`/`jsonl`/`json`).
fn main() {
    pp_bench::output::run_bin("t15_sbm_blocks", |preset| {
        pp_bench::experiments::sbm::run(preset, 1_500)
    });
}
