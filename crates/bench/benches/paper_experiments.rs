//! Runs every experiment of [`pp_bench::experiments::ALL`] in one pass.
//!
//! `cargo bench -p pp-bench --bench paper_experiments` prints every
//! experiment report (quick preset by default; set `PP_PRESET=full` for
//! the EXPERIMENTS.md scales), so the bench log doubles as the
//! reproduction record. It exits 3 if any experiment's gate failed, after
//! running the rest.

use pp_bench::experiments::ALL;
use pp_bench::output::EXIT_GATE_FAILURE;
use pp_bench::Preset;
use std::time::Instant;

fn main() {
    let preset = Preset::from_env();
    println!(
        "# paper experiment suite (preset: {:?}) — Diversity, Fairness, and Sustainability in Population Protocols (PODC 2021)\n",
        preset
    );
    let started = Instant::now();
    let mut failed = Vec::new();
    for experiment in ALL {
        let t0 = Instant::now();
        let report = (experiment.run)(preset);
        report.print();
        println!("  [{} completed in {:.2?}]\n", experiment.id, t0.elapsed());
        if report.gate_failed {
            failed.push(experiment.id);
        }
    }
    println!("# suite finished in {:.2?}", started.elapsed());
    if !failed.is_empty() {
        eprintln!("gate failed: {}", failed.join(", "));
        std::process::exit(EXIT_GATE_FAILURE);
    }
}
