//! `t5_fairness` — Theorem 2.12: over a long window each agent holds colour
//! `i` a `(1 ± o(1))·w_i/w` fraction of the time.
//!
//! We track the exact per-agent occupancy of every colour at two horizons;
//! fairness predicts the worst per-agent deviation shrinks as the horizon
//! grows (the `o(1)` in the theorem).
//!
//! Occupancy tracking needs **stable per-agent identity**, which every
//! tier except the count-based dense engine provides; under the dense
//! default, `PP_ENGINE` is mapped to the packed fast path
//! ([`EngineKind::per_agent`]) and the report notes the tier that ran.
//! The tracker streams each snapshot straight out of the engine
//! ([`FairnessTracker::record_engine`]) — no per-snapshot allocation.

use crate::experiments::Report;
use crate::runner::{build_engine, EngineKind, Preset};
use pp_core::{init, FairnessTracker, Weights};
use pp_stats::{table::fmt_f64, Table};

/// Runs the experiment.
pub fn run(preset: Preset, seed: u64) -> Report {
    let n = preset.pick(128, 512);
    let weights = Weights::new(vec![1.0, 1.0, 2.0]).expect("static table");
    let k = weights.len();
    let engine = EngineKind::from_env().per_agent();
    let states = init::all_dark_balanced(n, &weights);
    let mut sim = build_engine(engine, &weights, states, seed);
    // Burn in past the Theorem 1.3 budget.
    sim.run(pp_core::theory::convergence_budget(n, weights.total(), 4.0));

    let nln = n as f64 * (n as f64).ln();
    let horizons: Vec<u64> = preset.pick(
        vec![(20.0 * nln) as u64, (200.0 * nln) as u64],
        vec![(50.0 * nln) as u64, (500.0 * nln) as u64],
    );

    let mut table = Table::new([
        "horizon (steps)",
        "snapshots",
        "max_u,i |occ - w_i/w|",
        "mean_u max_i |occ - w_i/w|",
        "agent0 occupancies",
    ]);
    let mut deviations = Vec::new();
    let mut tracker = FairnessTracker::new(n, k);
    let mut recorded: u64 = 0;
    for &horizon in &horizons {
        // Extend the same run to the next horizon (occupancies accumulate).
        let stride = n as u64;
        while recorded * stride < horizon {
            sim.run(stride);
            tracker.record_engine(&*sim);
            recorded += 1;
        }
        let max_dev = tracker.max_deviation(&weights);
        let mean_dev = tracker.mean_deviation(&weights);
        let occ0: Vec<String> = (0..k).map(|i| fmt_f64(tracker.occupancy(0, i))).collect();
        table.row([
            horizon.to_string(),
            tracker.snapshots().to_string(),
            fmt_f64(max_dev),
            fmt_f64(mean_dev),
            occ0.join("/"),
        ]);
        deviations.push(max_dev);
    }

    let mut report = Report::new(
        format!(
            "t5_fairness (n = {n}, weights = (1,1,2), fair shares 0.25/0.25/0.5, \
             {} engine)",
            engine.name()
        ),
        table,
    );
    report.set_engine(engine.name());
    if deviations.len() >= 2 {
        let first = deviations[0];
        let last = *deviations.last().expect("non-empty");
        report.note(format!(
            "deviation at the longest horizon {} the shortest ({} vs {}): the o(1) trend {}",
            if last <= first { "is below" } else { "exceeds" },
            fmt_f64(last),
            fmt_f64(first),
            if last <= first {
                "holds"
            } else {
                "is violated"
            },
        ));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deviation_shrinks_with_horizon() {
        let report = run(Preset::Quick, 5);
        assert!(
            report.notes.iter().any(|n| n.contains("holds")),
            "fairness o(1) trend violated:\n{}",
            report.render()
        );
    }

    #[test]
    fn occupancies_near_fair_share() {
        let report = run(Preset::Quick, 6);
        // The longest-horizon max deviation should be well under the
        // trivial bound of max fair share (0.5).
        let text = report.render();
        let last_row = text.lines().rfind(|l| l.contains('/')).expect("data row");
        let max_dev: f64 = last_row
            .split_whitespace()
            .nth(2)
            .and_then(|s| s.parse().ok())
            .expect("max deviation cell");
        assert!(max_dev < 0.3, "max deviation {max_dev}:\n{text}");
    }
}
