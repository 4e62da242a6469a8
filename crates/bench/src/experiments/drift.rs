//! `drift_lemmas` — the contraction inequalities of Lemmas 2.9(1), 2.10(1)
//! and 4.1(1), checked with **exact** conditional drifts.
//!
//! Conditioned on a configuration, the one-step expected change of each
//! potential has a closed form (`pp_core::drift`). Along a real trajectory
//! from the adversarial start we tabulate, at log-spaced checkpoints,
//! the potential value and its exact drift, and estimate the contraction
//! coefficient `c₁` in
//!
//! ```text
//! E[Δφ] ≤ −c₁·φ/(n·w) + c₂.
//! ```
//!
//! The lemmas claim `c₁ > 0` with `c₂ = O(1)` inside the good set `E`; the
//! measured coefficients confirm both the sign and the `1/(n·w)` scale of
//! the contraction (the potentials halve every `O(w·n)` steps).

use crate::experiments::Report;
use crate::runner::{standard_weights, Preset};
use pp_core::drift::{expected_phi_drift, expected_psi_drift, expected_sigma_sq_drift};
use pp_core::region::GoodSet;
use pp_core::{init, phi, psi, sigma_sq, ConfigStats, Diversification};
use pp_engine::Simulator;
use pp_graph::Complete;
use pp_stats::{linear_fit, table::fmt_f64, Table};

/// Runs the experiment.
pub fn run(preset: Preset, seed: u64) -> Report {
    let n = preset.pick(1_024, 4_096);
    let weights = standard_weights();
    let k = weights.len();
    let w = weights.total();
    let states = init::all_dark_single_minority(n, &weights);
    let mut sim = Simulator::new(
        Diversification::new(weights.clone()),
        Complete::new(n),
        states,
        seed,
    );

    // Convergence lands around 4·n·ln n (see t1), so an 8·n·ln n horizon
    // covers the whole decay plus the equilibrium regime.
    let horizon = (8.0 * n as f64 * (n as f64).ln()) as u64;
    let checkpoints = 24u64;
    let stride = horizon / checkpoints;

    let good = GoodSet::new(weights.clone(), 0.25);
    let mut table = Table::new([
        "step",
        "in E?",
        "phi",
        "E[dPhi] exact",
        "psi",
        "E[dPsi] exact",
        "sigma^2",
        "E[dSigma^2] exact",
    ]);
    // For the contraction fit: E[Δφ] against φ/(n·w).
    let mut phi_x = Vec::new();
    let mut phi_y = Vec::new();
    let mut psi_x = Vec::new();
    let mut psi_y = Vec::new();
    for _ in 0..checkpoints {
        sim.run(stride);
        let stats = ConfigStats::from_states(sim.population().states(), k);
        let in_e = good.contains(&stats);
        let (p, dp) = (phi(&stats, &weights), expected_phi_drift(&stats, &weights));
        let (s, ds) = (psi(&stats, &weights), expected_psi_drift(&stats, &weights));
        let (g, dg) = (
            sigma_sq(&stats, &weights),
            expected_sigma_sq_drift(&stats, &weights),
        );
        table.row([
            sim.step_count().to_string(),
            if in_e { "yes" } else { "no" }.to_string(),
            fmt_f64(p),
            fmt_f64(dp),
            fmt_f64(s),
            fmt_f64(ds),
            fmt_f64(g),
            fmt_f64(dg),
        ]);
        // Lemmas 2.9/2.10 assume the configuration lies in E; fit only there.
        if in_e {
            phi_x.push(p / (n as f64 * w));
            phi_y.push(dp);
            psi_x.push(s / (n as f64));
            psi_y.push(ds);
        }
    }

    let mut report = Report::new(
        format!("drift_lemmas (n = {n}, weights = (1,1,2,4), exact conditional drifts)"),
        table,
    );
    report.set_engine("agent");
    if let Some(fit) = linear_fit(&phi_x, &phi_y) {
        report.note(format!(
            "Lemma 2.9(1), fitted over in-E checkpoints only: E[dPhi] = {:.3} - {:.3}·phi/(n·w); contraction c1 = {:.3} (> 0 required), R^2 = {:.3}",
            fit.intercept, -fit.slope, -fit.slope, fit.r_squared
        ));
    }
    if let Some(fit) = linear_fit(&psi_x, &psi_y) {
        report.note(format!(
            "Lemma 2.10(1), fitted over in-E checkpoints only: E[dPsi] = {:.3} - {:.3}·psi/n; contraction c1 = {:.3} (> 0 required), R^2 = {:.3}",
            fit.intercept, -fit.slope, -fit.slope, fit.r_squared
        ));
    }
    report.note(
        "halving-time corollary: c1/(n·w) per-step contraction means the potentials halve \
         every O(w·n) steps, the rate Lemma 2.6 turns into the O(w·n·log n) phase length.",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn contraction(report: &Report, lemma: &str) -> f64 {
        let note = report
            .notes
            .iter()
            .find(|n| n.contains(lemma))
            .expect("lemma note");
        note.split("c1 = ")
            .nth(1)
            .and_then(|s| s.split(' ').next())
            .and_then(|s| s.parse().ok())
            .expect("parseable contraction")
    }

    #[test]
    fn phi_and_psi_contract() {
        let report = run(Preset::Quick, 7);
        assert!(
            contraction(&report, "Lemma 2.9") > 0.0,
            "phi contraction non-positive:\n{}",
            report.render()
        );
        assert!(
            contraction(&report, "Lemma 2.10") > 0.0,
            "psi contraction non-positive:\n{}",
            report.render()
        );
    }
}
