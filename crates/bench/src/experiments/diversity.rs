//! `t3_diversity_error` — the `Õ(1/√n)` concentration of Eq. (1).
//!
//! After convergence, the worst deviation of any colour fraction from its
//! fair share, maximised over a whole observation window, should scale like
//! `sqrt(ln n / n)`: a log-log slope of about `−0.45 ± 0.1` against `n`.

use crate::experiments::{diversity_error_for_with, Report};
use crate::runner::{standard_weights, EngineKind, Preset};
use pp_engine::replicate;
use pp_stats::{loglog_fit, median, table::fmt_f64, Table};

/// Measures the windowed diversity error for one `(n, seed)` pair with the
/// engine selected by `PP_ENGINE` (dense by default — the topology is
/// `Complete`).
pub fn window_error(n: usize, seed: u64) -> f64 {
    window_error_with(EngineKind::from_env(), n, seed)
}

/// [`window_error`] with an explicit engine choice.
pub fn window_error_with(engine: EngineKind, n: usize, seed: u64) -> f64 {
    diversity_error_for_with(engine, n, &standard_weights(), seed)
}

/// Runs the sweep.
pub fn run(preset: Preset, base_seed: u64) -> Report {
    let sizes: Vec<usize> = preset.pick(
        vec![256, 512, 1_024, 2_048],
        vec![512, 1_024, 2_048, 4_096, 8_192, 16_384],
    );
    let seeds = preset.pick(3u64, 10u64);

    let mut table = Table::new([
        "n",
        "median max error",
        "error/sqrt(ln n / n)",
        "error*sqrt(n)",
    ]);
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for &n in &sizes {
        let errors = replicate(base_seed..base_seed + seeds, |seed| window_error(n, seed));
        let med = median(&errors).expect("non-empty");
        let scale = pp_core::theory::diversity_error_scale(n);
        table.row([
            n.to_string(),
            fmt_f64(med),
            fmt_f64(med / scale),
            fmt_f64(med * (n as f64).sqrt()),
        ]);
        xs.push(n as f64);
        ys.push(med);
    }

    let mut report = Report::new(
        "t3_diversity_error (weights = (1,1,2,4))".to_string(),
        table,
    );
    report.set_engine(EngineKind::from_env().name());
    if let Some(fit) = loglog_fit(&xs, &ys) {
        report.note(format!(
            "log-log fit of window-max error against n: slope = {:.3} (theory: -1/2 up to log factors), R^2 = {:.3}",
            fit.slope, fit.r_squared
        ));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_shrinks_with_n() {
        let small = window_error(256, 5);
        let large = window_error(2_048, 5);
        assert!(
            large < small,
            "diversity error did not shrink: {small} -> {large}"
        );
    }

    #[test]
    fn slope_is_negative_half_ish() {
        let report = run(Preset::Quick, 3);
        let note = report.notes.first().expect("fit note");
        let slope: f64 = note
            .split("slope = ")
            .nth(1)
            .and_then(|s| s.split(' ').next())
            .and_then(|s| s.parse().ok())
            .expect("parseable slope");
        assert!(
            (-0.75..=-0.25).contains(&slope),
            "slope {slope} inconsistent with Õ(1/sqrt(n)):\n{}",
            report.render()
        );
    }
}
