//! `t13_stability` — the second half of Theorem 2.5: once the process
//! enters the good set `E(δ)`, it stays there for a polynomially long
//! window, with exit probability `exp(−Ω(δ²·n/w³))`.
//!
//! The exponent matters: at small `n` (or heavy `w`) exits are *expected* —
//! `n/w³` is the scale at which the guarantee kicks in. So the experiment
//! uses uniform weights (`w = k = 4`) and reports, per `n`: the worst
//! relative deviation from the `E`-centre over a `min(n², 200·n·ln n)`-step
//! window, and the fraction of seeds that ever left `E(0.3)`. The theorem
//! predicts both shrink rapidly as `n` grows.

use crate::experiments::Report;
use crate::runner::Preset;
use pp_core::{init, region::GoodSet, ConfigStats, Diversification, Weights};
use pp_engine::{replicate, Simulator};
use pp_graph::Complete;
use pp_stats::{median, table::fmt_f64, Table};

/// One stability watch: returns the worst relative deviation from the
/// `E`-centre observed over the whole window (membership of `E(δ)` holds
/// iff this stays `≤ δ`).
pub fn worst_deviation(n: usize, seed: u64) -> f64 {
    let weights = Weights::uniform(4);
    let k = weights.len();
    let states = init::all_dark_balanced(n, &weights);
    let mut sim = Simulator::new(
        Diversification::new(weights.clone()),
        Complete::new(n),
        states,
        seed,
    );
    sim.run(pp_core::theory::convergence_budget(n, weights.total(), 4.0));
    let good = GoodSet::new(weights, 0.3);
    let nf = n as f64;
    let window = ((nf * nf) as u64).min((200.0 * nf * nf.ln()) as u64);
    let mut worst: f64 = 0.0;
    sim.run_observed(window, (n as u64 / 2).max(1), |_, pop| {
        let stats = ConfigStats::from_states(pop.states(), k);
        worst = worst.max(good.max_relative_deviation(&stats));
    });
    worst
}

/// Runs the sweep.
pub fn run(preset: Preset, base_seed: u64) -> Report {
    let sizes: Vec<usize> = preset.pick(vec![256, 512, 1_024], vec![512, 1_024, 2_048, 4_096]);
    let seeds = preset.pick(4u64, 10u64);
    let delta = 0.3;

    let mut table = Table::new([
        "n",
        "window (steps)",
        "median worst deviation",
        "seeds that left E(0.3)",
    ]);
    let mut worst_by_size = Vec::new();
    for &n in &sizes {
        let nf = n as f64;
        let window = ((nf * nf) as u64).min((200.0 * nf * nf.ln()) as u64);
        let devs = replicate(base_seed..base_seed + seeds, |s| worst_deviation(n, s));
        let exits = devs.iter().filter(|&&d| d > delta).count();
        let med = median(&devs).expect("non-empty");
        worst_by_size.push(med);
        table.row([
            n.to_string(),
            window.to_string(),
            fmt_f64(med),
            format!("{exits}/{seeds}"),
        ]);
    }

    let mut report = Report::new(
        format!("t13_stability (uniform w = 4, delta = {delta}, window = min(n^2, 200 n ln n))"),
        table,
    );
    report.set_engine("agent");
    let first = worst_by_size.first().copied().unwrap_or(0.0);
    let last = worst_by_size.last().copied().unwrap_or(0.0);
    report.note(format!(
        "Theorem 2.5 second half: the window-max deviation shrinks with n ({} -> {}), so the \
         exp(-Omega(delta^2 n/w^3)) exit probability vanishes — the polynomially-long stability \
         window, exercised here over min(n^2, 200 n ln n) steps per seed.",
        fmt_f64(first),
        fmt_f64(last)
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deviation_shrinks_with_n() {
        let small = worst_deviation(256, 3);
        let large = worst_deviation(2_048, 3);
        assert!(
            large < small,
            "window-max deviation did not shrink: {small} -> {large}"
        );
    }

    #[test]
    fn large_n_stays_inside() {
        let dev = worst_deviation(2_048, 7);
        assert!(dev <= 0.3, "left E(0.3) at n = 2048: deviation {dev}");
    }
}
