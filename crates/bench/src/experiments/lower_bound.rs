//! `t11_lower_bound` — the `Ω(n log n)` broadcast bound of §1.
//!
//! A colour supported by a single agent must propagate to `Θ(n)` agents;
//! the paper argues this takes `Ω(n log n)` steps, making Diversification's
//! `O(w² n log n)` convergence asymptotically optimal for constant `w`. We
//! start one agent with colour 1 (uniform two-colour weights, fair share
//! `n/2`) and time how long colour 1 needs to reach `n/4` supporters; the
//! ratio to `n·ln n` should stay bounded as `n` grows.

use crate::experiments::Report;
use crate::runner::{build_engine, EngineKind, Preset};
use pp_core::{init, packed::config_stats_from_class_counts, Weights};
use pp_engine::replicate;
use pp_stats::{loglog_fit, median, table::fmt_f64, Table};

/// Steps for the singleton colour to reach support `n/4`, with the engine
/// selected by `PP_ENGINE` (dense by default — the topology is `Complete`;
/// for the dense engine the singleton colour exercises its exact
/// critical-channel sampling until the colour takes root).
pub fn spread_time(n: usize, seed: u64) -> Option<u64> {
    spread_time_with(EngineKind::from_env(), n, seed)
}

/// [`spread_time`] with an explicit engine choice — one generic code path
/// for every tier.
pub fn spread_time_with(engine: EngineKind, n: usize, seed: u64) -> Option<u64> {
    let weights = Weights::uniform(2);
    let budget = pp_core::theory::convergence_budget(n, 2.0, 64.0);
    let check = (n as u64 / 4).max(1);
    // single_minority puts colour 0 in the majority; colour 1 is the
    // singleton.
    let states = init::all_dark_single_minority(n, &weights);
    let mut sim = build_engine(engine, &weights, states, seed);
    sim.run_until(budget, check, &mut |counts, _| {
        config_stats_from_class_counts(counts, 2).colour_count(1) >= n / 4
    })
}

/// Runs the sweep.
pub fn run(preset: Preset, base_seed: u64) -> Report {
    let sizes: Vec<usize> = preset.pick(
        vec![256, 512, 1_024, 2_048],
        vec![512, 1_024, 2_048, 4_096, 8_192, 16_384],
    );
    let seeds = preset.pick(3u64, 10u64);

    let mut table = Table::new(["n", "median spread time", "T/(n ln n)"]);
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for &n in &sizes {
        let times = replicate(base_seed..base_seed + seeds, |s| {
            spread_time(n, s).map(|t| t as f64).unwrap_or(f64::INFINITY)
        });
        let med = median(&times).expect("non-empty");
        let nln = n as f64 * (n as f64).ln();
        table.row([n.to_string(), fmt_f64(med), fmt_f64(med / nln)]);
        xs.push(n as f64);
        ys.push(med);
    }

    let mut report = Report::new(
        "t11_lower_bound (uniform k = 2; singleton colour to n/4 support)".to_string(),
        table,
    );
    report.set_engine(EngineKind::from_env().name());
    if let Some(fit) = loglog_fit(&xs, &ys) {
        report.note(format!(
            "log-log fit of spread time against n: slope = {:.3} (Θ(n log n) predicts slightly above 1), R^2 = {:.3}",
            fit.slope, fit.r_squared
        ));
    }
    report.note(
        "matching upper bound: Diversification converges in O(w² n log n), so for constant w \
         the protocol is asymptotically optimal against this broadcast bound.",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_finishes_and_scales_superlinearly() {
        // Spread times are heavy-tailed; compare medians over a few seeds.
        let med = |n: usize| -> f64 {
            let times: Vec<f64> = (0..5)
                .map(|s| spread_time(n, 3 + s).expect("spread finished") as f64)
                .collect();
            median(&times).unwrap()
        };
        let t512 = med(512);
        let t2048 = med(2_048);
        // 4× population ⇒ more than 4× time (the log factor), but not 16×.
        assert!(
            t2048 > 3.0 * t512 && t2048 < 20.0 * t512,
            "t512={t512}, t2048={t2048}"
        );
    }
}
