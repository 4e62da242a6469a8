//! `ablations` — knock out one design choice of Eq. (2) at a time (the
//! two choices `pp_baselines::ablation` removes) and measure what breaks:
//!
//! * **shade-blind adoption** (`AdoptAnyShade`): light agents copy light
//!   agents too. Measured outcome: the equilibrium is essentially unchanged
//!   (light agents are a thin slice whose colour mix already tracks the dark
//!   mix) — the rule matters for the proof's calibration argument, not for
//!   the equilibrium location;
//! * **weight-blind softening** (`ConstantFlip`): softening at a constant
//!   rate → the equilibrium collapses to the uniform partition and the
//!   heavy colour loses its extra share entirely.

use crate::experiments::Report;
use crate::runner::Preset;
use pp_baselines::{AdoptAnyShade, ConstantFlip};
use pp_core::{init, AgentState, ConfigStats, Diversification, Weights};
use pp_engine::{replicate, Protocol, Simulator};
use pp_graph::Complete;
use pp_stats::{median, table::fmt_f64, Table};

/// `(window-max diversity error, mean heavy-colour share)` for a protocol.
fn measure<P>(make: impl Fn() -> P, n: usize, weights: &Weights, seed: u64) -> (f64, f64)
where
    P: Protocol<State = AgentState>,
{
    let k = weights.len();
    let heavy = k - 1;
    let states = init::all_dark_balanced(n, weights);
    let mut sim = Simulator::new(make(), Complete::new(n), states, seed);
    sim.run(pp_core::theory::convergence_budget(n, weights.total(), 4.0));
    let nln = n as f64 * (n as f64).ln();
    let mut worst: f64 = 0.0;
    let mut share_sum = 0.0;
    let mut samples = 0u32;
    sim.run_observed((2.0 * nln) as u64, (n as u64 / 2).max(1), |_, pop| {
        let stats = ConfigStats::from_states(pop.states(), k);
        worst = worst.max(stats.max_diversity_error(weights));
        share_sum += stats.colour_fraction(heavy);
        samples += 1;
    });
    (worst, share_sum / samples as f64)
}

/// Runs the ablation comparison.
pub fn run(preset: Preset, base_seed: u64) -> Report {
    let n = preset.pick(512, 2_048);
    let weights = Weights::new(vec![1.0, 3.0]).expect("static table");
    let seeds = preset.pick(3u64, 8u64);
    let fair_heavy = weights.fair_share(1); // 0.75

    let mut table = Table::new([
        "variant",
        "median window err",
        "median heavy share (target 0.75)",
        "what broke",
    ]);

    let full: Vec<(f64, f64)> = replicate(base_seed..base_seed + seeds, |s| {
        measure(|| Diversification::new(weights.clone()), n, &weights, s)
    });
    let shade: Vec<(f64, f64)> = replicate(base_seed..base_seed + seeds, |s| {
        measure(|| AdoptAnyShade::new(weights.clone()), n, &weights, s)
    });
    let flip: Vec<(f64, f64)> = replicate(base_seed..base_seed + seeds, |s| {
        measure(|| ConstantFlip::new(0.5), n, &weights, s)
    });

    let med = |pairs: &[(f64, f64)], which: usize| -> f64 {
        let vals: Vec<f64> = pairs
            .iter()
            .map(|p| if which == 0 { p.0 } else { p.1 })
            .collect();
        median(&vals).expect("non-empty")
    };

    let (full_err, full_share) = (med(&full, 0), med(&full, 1));
    let (shade_err, shade_share) = (med(&shade, 0), med(&shade, 1));
    let (flip_err, flip_share) = (med(&flip, 0), med(&flip, 1));

    table.row([
        "diversification".to_string(),
        fmt_f64(full_err),
        fmt_f64(full_share),
        "-".to_string(),
    ]);
    table.row([
        "adopt-any-shade".to_string(),
        fmt_f64(shade_err),
        fmt_f64(shade_share),
        format!("err ratio {:.2}x vs full", shade_err / full_err),
    ]);
    table.row([
        "constant-flip(0.5)".to_string(),
        fmt_f64(flip_err),
        fmt_f64(flip_share),
        format!(
            "heavy colour lost {:.0}%-of-extra-share",
            100.0 * (fair_heavy - flip_share) / (fair_heavy - 0.5)
        ),
    ]);

    let mut report = Report::new(
        format!("ablations (n = {n}, weights = (1,3), heavy fair share 0.75)"),
        table,
    );
    report.set_engine("agent");
    report.note(
        "weight-inverse softening is the decisive ingredient: replacing 1/w_i with a constant \
         collapses the equilibrium to the uniform partition. Dark-only adoption (rule 1) turns \
         out to be non-critical for the equilibrium location in simulation — it is load-bearing \
         for the proof's adoption-rate calibration, not for where the process settles.",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_flip_loses_the_weighted_share() {
        let report = run(Preset::Quick, 23);
        let text = report.render();
        let share_of = |name: &str| -> f64 {
            text.lines()
                .find(|l| l.trim_start().starts_with(name))
                .and_then(|l| l.split_whitespace().nth(2))
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| panic!("row {name}:\n{text}"))
        };
        let full = share_of("diversification ");
        let flip = share_of("constant-flip(0.5)");
        assert!(
            full > 0.65 && flip < 0.62,
            "full={full}, flip={flip}:\n{text}"
        );
    }
}
