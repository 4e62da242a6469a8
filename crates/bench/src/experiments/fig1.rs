//! `fig1_phases` — the phase timeline of Fig. 1.
//!
//! One run from the adversarial single-minority start; we locate the
//! milestones the analysis defines:
//!
//! * τ₁ — first entry into the multiplicative good set `E(δ)` (Thm 2.5);
//! * τ₂,₁ — `φ` first drops below `C·w·n·ln n` (Lemma 2.6);
//! * τ₂,₂ — `ψ` first drops below `C·w·n·ln n` (Lemma 2.7);
//! * τ₃ — `σ²` first drops below `C·n^{3/2}·√(ln n)` (Lemma 2.14);
//!
//! and report each in steps and in units of `n·ln n`. The paper predicts
//! all four are `O(w² n log n)` and occur in this order up to constants.

use crate::experiments::Report;
use crate::runner::{standard_weights, Preset};
use pp_core::{init, phi, psi, region::GoodSet, sigma_sq, ConfigStats, Diversification};
use pp_engine::Simulator;
use pp_graph::Complete;
use pp_stats::{table::fmt_f64, Table, TimeSeries};

/// Runs the experiment.
pub fn run(preset: Preset, seed: u64) -> Report {
    let n = preset.pick(2_048, 8_192);
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

    let good = GoodSet::new(weights.clone(), 0.25);
    let horizon = pp_core::theory::convergence_budget(n, w, 8.0);
    let stride = (n as u64) / 2;

    let mut phi_ts = TimeSeries::new();
    let mut psi_ts = TimeSeries::new();
    let mut sigma_ts = TimeSeries::new();
    let mut violation_ts = TimeSeries::new();
    sim.run_observed(horizon, stride, |t, pop| {
        let stats = ConfigStats::from_states(pop.states(), k);
        phi_ts.push(t, phi(&stats, &weights));
        psi_ts.push(t, psi(&stats, &weights));
        sigma_ts.push(t, sigma_sq(&stats, &weights));
        violation_ts.push(t, good.violation(&stats));
    });

    let nf = n as f64;
    let nln = nf * nf.ln();
    let pot_bound = pp_core::theory::potential_equilibrium_scale(n, w);
    let sigma_bound = nf.powf(1.5) * nf.ln().sqrt();

    let tau1 = violation_ts.settling_time_leq(0.0);
    let tau21 = phi_ts.settling_time_leq(pot_bound);
    let tau22 = psi_ts.settling_time_leq(pot_bound);
    let tau3 = sigma_ts.settling_time_leq(sigma_bound);

    let mut table = Table::new(["milestone", "bound reached", "steps", "steps/(n ln n)"]);
    for (name, bound, tau) in [
        (
            "tau1  (enter E(0.25), Thm 2.5)",
            "violation = 0".to_string(),
            tau1,
        ),
        (
            "tau2.1 (phi <= w n ln n, Lem 2.6)",
            format!("phi <= {}", fmt_f64(pot_bound)),
            tau21,
        ),
        (
            "tau2.2 (psi <= w n ln n, Lem 2.7)",
            format!("psi <= {}", fmt_f64(pot_bound)),
            tau22,
        ),
        (
            "tau3  (sigma^2 <= n^1.5 sqrt(ln n), Lem 2.14)",
            format!("sigma^2 <= {}", fmt_f64(sigma_bound)),
            tau3,
        ),
    ] {
        match tau {
            Some(t) => table.row([
                name.to_string(),
                bound,
                t.to_string(),
                fmt_f64(t as f64 / nln),
            ]),
            None => table.row([name.to_string(), bound, "not reached".into(), "-".into()]),
        };
    }

    let mut report = Report::new(
        format!("fig1_phases (n = {n}, w = {w}, seed = {seed})"),
        table,
    );
    report.set_engine("agent");

    // Potential decay series at log-spaced checkpoints — the "curve" of Fig. 1.
    let mut series = Table::new(["step", "phi", "psi", "sigma^2", "E-violation"]);
    let len = phi_ts.len();
    let mut idx = 0usize;
    while idx < len {
        let t = phi_ts.times()[idx];
        series.row([
            t.to_string(),
            fmt_f64(phi_ts.values()[idx]),
            fmt_f64(psi_ts.values()[idx]),
            fmt_f64(sigma_ts.values()[idx]),
            fmt_f64(violation_ts.values()[idx]),
        ]);
        idx = (idx * 2).max(idx + 1);
    }
    report.note(format!("decay series:\n{}", series.render()));

    if let (Some(t1), Some(t21), Some(t22)) = (tau1, tau21, tau22) {
        report.note(format!(
            "phase ordering tau1 <= tau2.1 <= tau2.2: {}",
            if t1 <= t21 && t21 <= t22 {
                "holds"
            } else {
                "violated (single-run noise)"
            }
        ));
    }
    if let Some(t3) = tau3 {
        report.note(format!(
            "all milestones within the O(w^2 n log n) budget: tau3/(w^2 n ln n) = {}",
            fmt_f64(t3 as f64 / (w * w * nln))
        ));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_preset_reaches_all_milestones() {
        let report = run(Preset::Quick, 11);
        let text = report.render();
        assert!(
            !text.contains("not reached"),
            "some milestone missed:\n{text}"
        );
        assert!(text.contains("tau3"));
    }
}
