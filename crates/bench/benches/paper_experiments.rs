//! Regenerates every table/figure of the reproduction in one pass.
//!
//! `cargo bench -p pp-bench --bench paper_experiments` prints the full set
//! of experiment reports (quick preset by default; set `PP_PRESET=full` for
//! the EXPERIMENTS.md scales), so the bench log doubles as the reproduction
//! record. Each experiment id maps to a theorem or figure of the paper —
//! see the experiment table at the top of EXPERIMENTS.md.

use pp_bench::experiments;
use pp_bench::Preset;
use std::time::Instant;

fn main() {
    let preset = Preset::from_env();
    println!(
        "# paper experiment suite (preset: {:?}) — Diversity, Fairness, and Sustainability in Population Protocols (PODC 2021)\n",
        preset
    );
    let started = Instant::now();

    let timed = &mut |name: &str, f: &mut dyn FnMut() -> experiments::Report| {
        let t0 = Instant::now();
        let report = f();
        report.print();
        println!("  [{name} completed in {:.2?}]\n", t0.elapsed());
    };

    timed("fig1_phases", &mut || experiments::fig1::run(preset, 2024));
    timed("t1_convergence_n", &mut || {
        experiments::convergence::run_n_sweep(preset, 100)
    });
    timed("t2_convergence_w", &mut || {
        experiments::convergence::run_w_sweep(preset, 200)
    });
    timed("t3_diversity_error", &mut || {
        experiments::diversity::run(preset, 300)
    });
    timed("t4_phase3_error", &mut || {
        experiments::phase3::run(preset, 400)
    });
    timed("t5_fairness", &mut || {
        experiments::fairness::run(preset, 500)
    });
    timed("t6_sustainability", &mut || {
        experiments::sustainability::run(preset, 600)
    });
    timed("t7_baselines", &mut || {
        experiments::baselines::run(preset, 700)
    });
    timed("t8_derandomised", &mut || {
        experiments::derandomised::run(preset, 800)
    });
    timed("t9_markov", &mut || experiments::markov::run(preset, 900));
    timed("t10_topologies", &mut || {
        experiments::topologies::run(preset, 1000)
    });
    timed("t11_lower_bound", &mut || {
        experiments::lower_bound::run(preset, 1100)
    });
    timed("t12_uniform_partition", &mut || {
        experiments::uniform_partition::run(preset, 1200)
    });
    timed("t13_stability", &mut || {
        experiments::stability::run(preset, 1500)
    });
    timed("ablations", &mut || {
        experiments::ablations::run(preset, 1300)
    });
    timed("drift_lemmas", &mut || {
        experiments::drift::run(preset, 1400)
    });

    println!("# suite finished in {:.2?}", started.elapsed());
}
