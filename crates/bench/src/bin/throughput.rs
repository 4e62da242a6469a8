//! Engine throughput comparison across the three tiers.
//!
//! Prints steps-per-second for the agent vs dense engines on the complete
//! graph at n ∈ {10⁴, 10⁶, 10⁸}, and for the generic-dyn vs packed engines
//! on ring/torus/random-regular at n = 10⁵, then writes the table to
//! `BENCH_throughput.json`. Run with `PP_PRESET=full` for longer
//! measurement windows.
//!
//! Output follows the result-JSON v1 envelope (EXPERIMENTS.md
//! "Observability"): exit code 0 on success, 2 on schema error. `PP_OBS`
//! selects a recorder sink (`table`/`jsonl`/`json`).
fn main() {
    pp_bench::output::run_bin("throughput", |preset| {
        pp_bench::throughput::run(preset, 1600)
    });
}
