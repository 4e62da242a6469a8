//! `t12_uniform_partition` — the `w_i = 1` special case: Diversification
//! becomes a (shade-randomness-free) protocol for the uniform `k`-partition
//! problem of Yasumi et al., and the note below Eq. (2) observes the
//! softening coin disappears entirely. We measure how evenly the population
//! splits across `k` for growing `k`.

use crate::experiments::Report;
use crate::runner::Preset;
use pp_core::{init, ConfigStats, Diversification, Weights};
use pp_engine::{replicate, Simulator};
use pp_graph::Complete;
use pp_stats::{median, table::fmt_f64, Table};

/// Window-max of `max_i |C_i − n/k|` (absolute imbalance in agents).
pub fn window_imbalance(n: usize, k: usize, seed: u64) -> f64 {
    let weights = Weights::uniform(k);
    let states = init::all_dark_balanced(n, &weights);
    let mut sim = Simulator::new(
        Diversification::new(weights.clone()),
        Complete::new(n),
        states,
        seed,
    );
    sim.run(pp_core::theory::convergence_budget(n, k as f64, 4.0));
    let nln = n as f64 * (n as f64).ln();
    let target = n as f64 / k as f64;
    let mut worst: f64 = 0.0;
    sim.run_observed((2.0 * nln) as u64, (n as u64 / 2).max(1), |_, pop| {
        let stats = ConfigStats::from_states(pop.states(), k);
        for i in 0..k {
            worst = worst.max((stats.colour_count(i) as f64 - target).abs());
        }
    });
    worst
}

/// Runs the sweep over `k`.
pub fn run(preset: Preset, base_seed: u64) -> Report {
    let n = preset.pick(512, 2_048);
    let ks: Vec<usize> = preset.pick(vec![2, 4, 8], vec![2, 4, 8, 16]);
    let seeds = preset.pick(3u64, 8u64);

    let mut table = Table::new([
        "k",
        "target n/k",
        "median max |C_i - n/k|",
        "imbalance / sqrt(n ln n)",
    ]);
    for &k in &ks {
        let imbalances = replicate(base_seed..base_seed + seeds, |s| window_imbalance(n, k, s));
        let med = median(&imbalances).expect("non-empty");
        let scale = (n as f64 * (n as f64).ln()).sqrt();
        table.row([
            k.to_string(),
            fmt_f64(n as f64 / k as f64),
            fmt_f64(med),
            fmt_f64(med / scale),
        ]);
    }

    let mut report = Report::new(format!("t12_uniform_partition (n = {n})"), table);
    report.set_engine("agent");
    report.note(
        "with unit weights the protocol solves the uniform k-partition problem (Yasumi et al.'s \
         objective) with sqrt(n log n)-scale imbalance — the Eq. (1) guarantee specialised to \
         w_i = 1, under random scheduling instead of their adversarial model.",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_balanced() {
        let imbalance = window_imbalance(512, 4, 7);
        // Fair share is 128; imbalance should be a small fraction of it.
        assert!(imbalance < 64.0, "imbalance {imbalance} vs share 128");
    }

    #[test]
    fn report_has_all_k_rows() {
        let report = run(Preset::Quick, 19);
        assert_eq!(report.table.num_rows(), 3);
    }
}
