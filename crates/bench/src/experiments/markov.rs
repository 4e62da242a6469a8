//! `t9_markov` — the §2.4 Markov-chain approximation behind the fairness
//! proof.
//!
//! After convergence we record one agent's `(colour, shade)` trajectory for
//! `T` global time-steps and compare it with the ideal equilibrium chain
//! `P`:
//!
//! 1. **occupancy**: the fraction of time in each of the `2k` states vs the
//!    exact stationary distribution `π` (Eqs. (18)–(19));
//! 2. **transitions**: the empirical transition frequencies vs the entries
//!    of `P` (Eq. (20) predicts per-entry error `err = O((log n/n)^{1/4})/n`
//!    — we report the max entry deviation scaled by `n`);
//! 3. **concentration**: the hit counts against the Theorem A.2 width.

use crate::experiments::Report;
use crate::runner::{converged_simulator, standard_weights, Preset};
use pp_core::checker::TrajectoryRecorder;
use pp_markov::{chernoff::chernoff_mc_width, mixing_time, IdealChain, Walk};
use pp_stats::{table::fmt_f64, Table};

/// Runs the experiment.
pub fn run(preset: Preset, seed: u64) -> Report {
    let n = preset.pick(256, 1_024);
    let weights = standard_weights();
    let k = weights.len();
    let mut sim = converged_simulator(n, &weights, seed);

    let steps: u64 = preset.pick(2_000_000, 10_000_000);
    let mut recorder = TrajectoryRecorder::new(0, k);
    recorder.record(sim.population().states());
    for _ in 0..steps {
        sim.step();
        recorder.record(sim.population().states());
    }
    let walk = Walk::from_states(recorder.into_states());

    let chain = IdealChain::new(weights.as_slice(), n);
    let pi = chain.exact_stationary();
    let occupancy = walk.occupancy(2 * k);
    let empirical = walk.empirical_transitions(2 * k);
    let ideal = chain.matrix();

    let mut table = Table::new(["state", "pi (exact)", "occupancy (measured)", "|diff|"]);
    let mut max_occ_err: f64 = 0.0;
    for i in 0..k {
        for (label, idx) in [("D", chain.dark(i)), ("L", chain.light(i))] {
            let diff = (occupancy[idx] - pi[idx]).abs();
            max_occ_err = max_occ_err.max(diff);
            table.row([
                format!("{label}{i} (w={})", weights.get(i)),
                fmt_f64(pi[idx]),
                fmt_f64(occupancy[idx]),
                fmt_f64(diff),
            ]);
        }
    }

    let mut max_trans_err: f64 = 0.0;
    for i in 0..2 * k {
        for j in 0..2 * k {
            max_trans_err = max_trans_err.max((empirical.prob(i, j) - ideal.prob(i, j)).abs());
        }
    }

    let mut report = Report::new(
        format!("t9_markov (n = {n}, weights = (1,1,2,4), T = {steps} steps, agent 0)"),
        table,
    );
    report.set_engine("agent");
    report.note(format!(
        "max occupancy deviation from pi: {} (fairness needs o(1))",
        fmt_f64(max_occ_err)
    ));
    report.note(format!(
        "max |empirical - P| transition entry: {} = {}/n; Eq. (20) allows err = (ln n/n)^(1/4)/n = {}/n",
        fmt_f64(max_trans_err),
        fmt_f64(max_trans_err * n as f64),
        fmt_f64(pp_core::theory::mc_approximation_error(n))
    ));
    // Theorem A.2 check on the heaviest dark state.
    let heavy = chain.dark(k - 1);
    if let Some(tmix) = mixing_time(ideal, 0.125, 200 * n) {
        let hits = walk.hit_counts(2 * k)[heavy] as f64;
        let expected = pi[heavy] * walk.len() as f64;
        let width = chernoff_mc_width(pi[heavy], walk.len() as u64, tmix as u64, n as u64, 2.0);
        report.note(format!(
            "Thm A.2 on D{} : |N - pi t| = {} <= width {} : {} (t_mix(1/8) = {tmix})",
            k - 1,
            fmt_f64((hits - expected).abs()),
            fmt_f64(width),
            if (hits - expected).abs() <= width {
                "holds"
            } else {
                "VIOLATED"
            },
        ));
    } else {
        report.note("mixing time not reached within cap (expected only for huge n)".to_string());
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_close_to_stationary() {
        let report = run(Preset::Quick, 8);
        let note = report
            .notes
            .iter()
            .find(|n| n.contains("occupancy deviation"))
            .expect("occupancy note");
        let dev: f64 = note
            .split(": ")
            .nth(1)
            .and_then(|s| s.split(' ').next())
            .and_then(|s| s.parse().ok())
            .expect("parseable deviation");
        assert!(
            dev < 0.08,
            "occupancy deviation {dev}:\n{}",
            report.render()
        );
    }

    #[test]
    fn chernoff_width_holds() {
        let report = run(Preset::Quick, 9);
        assert!(!report.render().contains("VIOLATED"), "{}", report.render());
    }
}
