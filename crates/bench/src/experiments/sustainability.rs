//! `t6_sustainability` — Definition 1.1(3) plus the robustness claims:
//! colours never vanish on their own; adversarially injected colours take
//! root and the system recovers its fair shares; a *retired* colour stays
//! retired under Diversification but haunts the trivial global-sampling
//! protocol forever (the introduction's non-robustness argument).
//!
//! Every phase — the plain run *and* the shock/churn phases — runs on the
//! engine selected by `PP_ENGINE`, through the generic
//! [`Engine`](pp_engine::Engine) surface: the adversary suite itself is
//! engine-generic, so the whole experiment rides the dense tier by
//! default and any fast tier on request (no more falling back to the
//! agent engine for the mutating phases).

use crate::experiments::Report;
use crate::runner::{build_engine, EngineKind, Preset};
use pp_adversary::{apply, error_under_churn, recovery_time, Shock};
use pp_baselines::TrivialProportional;
use pp_core::{
    packed::config_stats_from_class_counts, region::GoodSet, AgentState, Colour, Weights,
};
use pp_engine::Simulator;
use pp_graph::Complete;
use pp_stats::{table::fmt_f64, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs the experiment.
pub fn run(preset: Preset, seed: u64) -> Report {
    let n = preset.pick(300, 1_200);
    // Universe of 5 colours; colour 4 is initially ABSENT (the adversary
    // will inject it), so fair shares are computed over the 4 live ones.
    let weights = Weights::new(vec![1.0, 1.0, 1.0, 1.0, 1.0]).expect("static table");
    let k = weights.len();
    let mut counts = [n / 4, n / 4, n / 4, n / 4, 0];
    counts[0] += n - counts.iter().sum::<usize>();
    let states: Vec<AgentState> = counts
        .iter()
        .enumerate()
        .flat_map(|(i, &c)| std::iter::repeat_n(AgentState::dark(Colour::new(i)), c))
        .collect();
    let engine = EngineKind::from_env();
    let mut sim = build_engine(engine, &weights, states, seed);
    let mut shock_rng = StdRng::seed_from_u64(seed.wrapping_add(1));
    let mut table = Table::new(["event", "outcome"]);
    let mut report_notes = Vec::new();

    // Phase A: plain run — live colours never vanish, absent colour never
    // appears (the start has zero supporters of colour 4; its adoption
    // rate is exactly zero on every tier).
    let mut min_live_dark = usize::MAX;
    let burn = pp_core::theory::convergence_budget(n, 4.0, 4.0);
    let mut resurrect = false;
    sim.run_observed(burn, n as u64, &mut |_, class_counts| {
        let stats = config_stats_from_class_counts(class_counts, k);
        for i in 0..4 {
            min_live_dark = min_live_dark.min(stats.dark_count(i));
        }
        resurrect |= stats.colour_count(4) > 0;
    });
    table.row([
        format!("phase A: plain run ({} engine)", engine.name()),
        format!(
            "min dark support of live colours = {min_live_dark} (never 0); absent colour appeared: {resurrect}"
        ),
    ]);
    report_notes.push(format!(
        "sustainability of live colours {}",
        if min_live_dark >= 1 {
            "holds"
        } else {
            "VIOLATED"
        }
    ));

    // Phase B: inject colour 4 dark and measure recovery into E(δ) over all
    // 5 — on the same engine, through the generic adversary suite.
    let good = GoodSet::new(weights.clone(), 0.35);
    let budget = pp_core::theory::convergence_budget(n, weights.total(), 64.0);
    let rec = recovery_time(
        &mut *sim,
        &Shock::InjectColour {
            colour: Colour::new(4),
            recruits: (n / 10).max(2),
        },
        &good,
        &mut shock_rng,
        budget,
        n as u64 / 2,
    );
    let nln = n as f64 * (n as f64).ln();
    table.row([
        "phase B: inject colour 4 (dark)".to_string(),
        match rec {
            Some(t) => format!(
                "recovered into E(0.35) after {t} steps = {} n ln n",
                fmt_f64(t as f64 / nln)
            ),
            None => "did NOT recover within budget".to_string(),
        },
    ]);
    report_notes.push(format!(
        "robust recovery after colour injection {}",
        if rec.is_some() { "holds" } else { "VIOLATED" }
    ));

    // Phase C: retire colour 0 (all supporters become colour 1). Under
    // Diversification the retired colour must stay extinct.
    apply(
        &Shock::RetireColour {
            colour: Colour::new(0),
            replacement: Colour::new(1),
        },
        &mut *sim,
        &mut shock_rng,
    );
    let mut resurrected = false;
    sim.run_observed((10.0 * nln) as u64, n as u64, &mut |_, class_counts| {
        let stats = config_stats_from_class_counts(class_counts, k);
        resurrected |= stats.colour_count(0) > 0;
    });
    table.row([
        "phase C: retire colour 0 (Diversification)".to_string(),
        format!("retired colour resurrected: {resurrected} (should be false)"),
    ]);
    report_notes.push(format!(
        "retired colour stays retired under Diversification: {}",
        if resurrected { "VIOLATED" } else { "holds" }
    ));

    // Phase D: the same retirement under the trivial proportional protocol —
    // it keeps resampling the dead colour (the intro's non-robustness).
    // TrivialProportional has no fast-path encoding, so this contrast
    // phase stays on the generic engine regardless of PP_ENGINE.
    let trivial_weights = Weights::new(vec![1.0, 1.0, 1.0, 1.0]).expect("static");
    let trivial_states: Vec<Colour> = (0..n).map(|u| Colour::new(1 + (u % 3))).collect();
    let mut trivial_sim = Simulator::new(
        TrivialProportional::new(trivial_weights),
        Complete::new(n),
        trivial_states,
        seed.wrapping_add(7),
    );
    trivial_sim.run((2.0 * nln) as u64);
    let dead_support = trivial_sim
        .population()
        .count_matching(|&c| c == Colour::new(0));
    table.row([
        "phase D: colour 0 retired (TrivialProportional)".to_string(),
        format!("dead colour's support after run = {dead_support} (> 0: agents keep wasting work on it)"),
    ]);
    report_notes.push(format!(
        "trivial protocol resurrects retired colours (non-robustness): {}",
        if dead_support > 0 {
            "demonstrated"
        } else {
            "NOT demonstrated"
        }
    ));

    // Phase E: sustained churn — one random agent reset per interval; the
    // dynamic-equilibrium error grows with the churn rate but diversity and
    // sustainability survive. Same engine tier as the rest of the phases.
    {
        let churn_weights = Weights::uniform(4);
        let m = preset.pick(300, 1_200);
        let converged = || {
            let states = pp_core::init::all_dark_balanced(m, &churn_weights);
            let mut sim = build_engine(engine, &churn_weights, states, seed.wrapping_add(9));
            sim.run(pp_core::theory::convergence_budget(m, 4.0, 4.0));
            sim
        };
        let horizon = (20.0 * m as f64 * (m as f64).ln()) as u64;
        let mut fast_rng = StdRng::seed_from_u64(seed.wrapping_add(10));
        let mut slow_rng = StdRng::seed_from_u64(seed.wrapping_add(10));
        let mut fast_sim = converged();
        let mut slow_sim = converged();
        let fast = error_under_churn(
            &mut *fast_sim,
            &churn_weights,
            ((m / 100).max(2)) as u64,
            horizon,
            &mut fast_rng,
        );
        let slow = error_under_churn(
            &mut *slow_sim,
            &churn_weights,
            (10 * m) as u64,
            horizon,
            &mut slow_rng,
        );
        table.row([
            "phase E: sustained churn".to_string(),
            format!(
                "mean diversity error: {} at 1 reset per n/100 steps vs {} at 1 per 10n steps (both diverse)",
                fmt_f64(fast),
                fmt_f64(slow)
            ),
        ]);
        report_notes.push(format!(
            "diversity persists under sustained churn, degrading gracefully with rate: {}",
            if fast < 0.5 && slow <= fast + 0.02 {
                "holds"
            } else {
                "VIOLATED"
            }
        ));
    }

    let mut report = Report::new(
        format!(
            "t6_sustainability (n = {n}, universe k = 5, {} engine end-to-end)",
            engine.name()
        ),
        table,
    );
    report.set_engine("multi");
    for note in report_notes {
        report.note(note);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_robustness_claims_hold() {
        let report = run(Preset::Quick, 31);
        let text = report.render();
        assert!(
            !text.contains("VIOLATED"),
            "robustness claim violated:\n{text}"
        );
        assert!(text.contains("demonstrated"), "{text}");
    }
}
