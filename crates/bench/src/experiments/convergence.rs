//! `t1_convergence_n` / `t2_convergence_w` — the `O(w² n log n)`
//! convergence-time bound of Theorem 1.3, swept in `n` and in `w`.

use crate::experiments::Report;
use crate::runner::{convergence_time, standard_weights, EngineKind, Preset};
use pp_core::Weights;
use pp_engine::replicate;
use pp_stats::{loglog_fit, median, table::fmt_f64, Table};

/// `t1_convergence_n`: convergence time vs population size `n` at fixed
/// weights. Theorem 1.3 predicts `T = O(w² n log n)`, i.e. a log-log slope
/// of `≈ 1` against `n·ln n`.
pub fn run_n_sweep(preset: Preset, base_seed: u64) -> Report {
    let sizes: Vec<usize> = preset.pick(
        vec![256, 512, 1_024, 2_048],
        vec![512, 1_024, 2_048, 4_096, 8_192, 16_384],
    );
    let seeds = preset.pick(3u64, 10u64);
    let weights = standard_weights();
    let w = weights.total();
    let delta = 0.25;

    let mut table = Table::new(["n", "seeds", "median T", "T/(n ln n)", "T/(w^2 n ln n)"]);
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for &n in &sizes {
        let budget = pp_core::theory::convergence_budget(n, w, 64.0);
        let times = replicate(base_seed..base_seed + seeds, |seed| {
            convergence_time(n, &weights, delta, seed, budget)
                .map(|t| t as f64)
                .unwrap_or(budget as f64)
        });
        let med = median(&times).expect("non-empty seeds");
        let nln = n as f64 * (n as f64).ln();
        table.row([
            n.to_string(),
            seeds.to_string(),
            fmt_f64(med),
            fmt_f64(med / nln),
            fmt_f64(med / (w * w * nln)),
        ]);
        xs.push(nln);
        ys.push(med);
    }

    let mut report = Report::new(
        format!("t1_convergence_n (weights = (1,1,2,4), delta = {delta})"),
        table,
    );
    report.set_engine(EngineKind::from_env().name());
    if let Some(fit) = loglog_fit(&xs, &ys) {
        report.note(format!(
            "log-log fit of T against n·ln n: slope = {:.3} (theory: <= 1), R^2 = {:.3}",
            fit.slope, fit.r_squared
        ));
    }
    report
}

/// `t2_convergence_w`: convergence time vs total weight `w` at fixed `n`,
/// using two colours with weights `(1, W−1)`. Theorem 1.3's budget grows as
/// `w²`; the measured time grows with `w` (the theorem is an upper bound).
pub fn run_w_sweep(preset: Preset, base_seed: u64) -> Report {
    let n = preset.pick(1_024, 4_096);
    let totals: Vec<f64> = preset.pick(
        vec![2.0, 4.0, 8.0, 16.0],
        vec![2.0, 4.0, 8.0, 16.0, 32.0, 64.0],
    );
    let seeds = preset.pick(3u64, 10u64);
    let delta = 0.25;
    let nln = n as f64 * (n as f64).ln();

    let mut table = Table::new(["w", "weights", "median T", "T/(n ln n)", "T/(w^2 n ln n)"]);
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for &total in &totals {
        let weights = Weights::new(vec![1.0, total - 1.0]).expect("valid two-colour table");
        let budget = pp_core::theory::convergence_budget(n, total, 64.0);
        let times = replicate(base_seed..base_seed + seeds, |seed| {
            convergence_time(n, &weights, delta, seed, budget)
                .map(|t| t as f64)
                .unwrap_or(budget as f64)
        });
        let med = median(&times).expect("non-empty seeds");
        table.row([
            fmt_f64(total),
            format!("(1,{})", total - 1.0),
            fmt_f64(med),
            fmt_f64(med / nln),
            fmt_f64(med / (total * total * nln)),
        ]);
        xs.push(total);
        ys.push(med);
    }

    let mut report = Report::new(
        format!("t2_convergence_w (n = {n}, delta = {delta})"),
        table,
    );
    report.set_engine(EngineKind::from_env().name());
    if let Some(fit) = loglog_fit(&xs, &ys) {
        report.note(format!(
            "log-log fit of T against w: slope = {:.3} (theory allows up to 2; the w² budget is an upper bound), R^2 = {:.3}",
            fit.slope, fit.r_squared
        ));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn n_sweep_slope_near_linear_in_nlogn() {
        let report = run_n_sweep(Preset::Quick, 1);
        let note = report.notes.first().expect("fit note");
        // Extract slope from the note.
        let slope: f64 = note
            .split("slope = ")
            .nth(1)
            .and_then(|s| s.split(' ').next())
            .and_then(|s| s.parse().ok())
            .expect("parseable slope");
        assert!(
            (0.5..=1.5).contains(&slope),
            "T vs n ln n slope {slope} far from linear:\n{}",
            report.render()
        );
    }

    #[test]
    fn w_sweep_is_monotone_increasing() {
        let report = run_w_sweep(Preset::Quick, 2);
        // Convergence time should not shrink as the weight spread grows.
        let note = report.notes.first().expect("fit note");
        let slope: f64 = note
            .split("slope = ")
            .nth(1)
            .and_then(|s| s.split(' ').next())
            .and_then(|s| s.parse().ok())
            .expect("parseable slope");
        assert!(
            slope > 0.0,
            "convergence time should grow with w:\n{}",
            report.render()
        );
        assert!(
            slope < 2.5,
            "slope {slope} above the w² budget:\n{}",
            report.render()
        );
    }
}
