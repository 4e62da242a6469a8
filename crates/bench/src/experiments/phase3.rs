//! `t4_phase3_error` — the additive equilibrium error of Theorem 2.13:
//! `|A_i − w_i n/(1+w)| ≤ C·n^{3/4}·(ln n)^{1/4}` (and similarly for the
//! light counts), maximised over an observation window.

use crate::experiments::Report;
use crate::runner::{converged_simulator, standard_weights, Preset};
use pp_core::ConfigStats;
use pp_engine::replicate;
use pp_stats::{loglog_fit, median, table::fmt_f64, Table};

/// Measured `(dark, light)` window-max equilibrium errors for one run.
pub fn window_errors(n: usize, seed: u64) -> (f64, f64) {
    let weights = standard_weights();
    let k = weights.len();
    let mut sim = converged_simulator(n, &weights, seed);
    let window = (2.0 * n as f64 * (n as f64).ln()) as u64;
    let stride = (n as u64) / 2;
    let mut dark: f64 = 0.0;
    let mut light: f64 = 0.0;
    sim.run_observed(window, stride.max(1), |_, pop| {
        let stats = ConfigStats::from_states(pop.states(), k);
        dark = dark.max(stats.max_dark_equilibrium_error(&weights));
        light = light.max(stats.max_light_equilibrium_error(&weights));
    });
    (dark, light)
}

/// Runs the sweep.
pub fn run(preset: Preset, base_seed: u64) -> Report {
    let sizes: Vec<usize> = preset.pick(
        vec![256, 512, 1_024, 2_048],
        vec![512, 1_024, 2_048, 4_096, 8_192],
    );
    let seeds = preset.pick(3u64, 10u64);

    let mut table = Table::new([
        "n",
        "median dark err",
        "median light err",
        "dark err / n^0.75 ln^0.25 n",
        "light err / n^0.75 ln^0.25 n",
    ]);
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for &n in &sizes {
        let pairs = replicate(base_seed..base_seed + seeds, |seed| window_errors(n, seed));
        let darks: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let lights: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let dark = median(&darks).expect("non-empty");
        let light = median(&lights).expect("non-empty");
        let scale = pp_core::theory::phase3_error_scale(n);
        table.row([
            n.to_string(),
            fmt_f64(dark),
            fmt_f64(light),
            fmt_f64(dark / scale),
            fmt_f64(light / scale),
        ]);
        xs.push(n as f64);
        ys.push(dark);
    }

    let mut report = Report::new("t4_phase3_error (weights = (1,1,2,4))".to_string(), table);
    report.set_engine("agent");
    if let Some(fit) = loglog_fit(&xs, &ys) {
        report.note(format!(
            "log-log fit of dark error against n: slope = {:.3} (theory: <= 3/4 up to log factors; \
             the fluctuation floor is 1/2), R^2 = {:.3}",
            fit.slope, fit.r_squared
        ));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_are_sublinear_in_n() {
        let (d256, _) = window_errors(256, 9);
        let (d2048, _) = window_errors(2_048, 9);
        // 8× the population should NOT produce 8× the absolute error.
        assert!(
            d2048 < 6.0 * d256,
            "errors scale linearly: {d256} -> {d2048}"
        );
    }

    #[test]
    fn slope_is_below_three_quarters() {
        let report = run(Preset::Quick, 17);
        let note = report.notes.first().expect("fit note");
        let slope: f64 = note
            .split("slope = ")
            .nth(1)
            .and_then(|s| s.split(' ').next())
            .and_then(|s| s.parse().ok())
            .expect("parseable slope");
        assert!(
            (0.2..=0.95).contains(&slope),
            "slope {slope} outside the [1/2, 3/4] band the theory brackets:\n{}",
            report.render()
        );
    }
}
