//! `t7_baselines` — the paper's framing claim: consensus protocols destroy
//! diversity, Diversification sustains it.
//!
//! For each protocol we measure the number of steps until the **first**
//! colour goes extinct, starting from a balanced `k`-colour configuration.
//! Voter / 2-Choices / 3-Majority lose a colour quickly (they are built to);
//! Diversification and Anti-Voter never do — their rows report the censored
//! budget. This is the "crossover" table: who preserves diversity, by an
//! unbounded factor.

use crate::experiments::Report;
use crate::runner::Preset;
use pp_baselines::{AntiVoter, ThreeMajority, TwoChoices, Voter};
use pp_core::{init, Colour, ConfigStats, Diversification, Weights};
use pp_engine::{replicate, Protocol, Simulator};
use pp_graph::Complete;
use pp_stats::{median, table::fmt_f64, Table};

/// Steps until the first of `k` colours has zero support, or `None` if all
/// colours survive the whole `budget`.
fn extinction_time<P>(protocol: P, n: usize, k: usize, seed: u64, budget: u64) -> Option<u64>
where
    P: Protocol<State = Colour>,
{
    let states: Vec<Colour> = (0..n).map(|u| Colour::new(u % k)).collect();
    let mut sim = Simulator::new(protocol, Complete::new(n), states, seed);
    sim.run_until(budget, (n as u64 / 2).max(1), |pop, _| {
        let counts = pop.count_by(|&c| c);
        (0..k).any(|i| !counts.contains_key(&Colour::new(i)))
    })
}

/// Steps until the first colour extinction under Diversification (which the
/// dynamics make impossible); returns `None` (censored) unless the paper's
/// guarantee is somehow violated.
fn diversification_extinction(n: usize, k: usize, seed: u64, budget: u64) -> Option<u64> {
    let weights = Weights::uniform(k);
    let states = init::all_dark_balanced(n, &weights);
    let mut sim = Simulator::new(
        Diversification::new(weights),
        Complete::new(n),
        states,
        seed,
    );
    sim.run_until(budget, (n as u64 / 2).max(1), |pop, _| {
        let stats = ConfigStats::from_states(pop.states(), k);
        (0..k).any(|i| stats.colour_count(i) == 0)
    })
}

/// Runs the comparison.
pub fn run(preset: Preset, base_seed: u64) -> Report {
    let n = preset.pick(256, 1_024);
    let k = 4;
    let seeds = preset.pick(3u64, 10u64);
    let nf = n as f64;
    // Voter needs Θ(n²) steps; give everyone the same generous budget.
    let budget = (20.0 * nf * nf) as u64;

    let mut table = Table::new([
        "protocol",
        "median extinction (steps)",
        "in units n ln n",
        "verdict",
    ]);

    let mut add_row = |name: &str, times: Vec<Option<u64>>| {
        let survived = times.iter().filter(|t| t.is_none()).count();
        let finite: Vec<f64> = times.iter().flatten().map(|&t| t as f64).collect();
        let nln = nf * nf.ln();
        if survived == times.len() {
            table.row([
                name.to_string(),
                format!("> {budget} (all {survived} seeds censored)"),
                format!("> {}", fmt_f64(budget as f64 / nln)),
                "diversity sustained".to_string(),
            ]);
        } else {
            let med = median(&finite).expect("some finite");
            table.row([
                name.to_string(),
                fmt_f64(med),
                fmt_f64(med / nln),
                format!("first colour dies ({}/{} seeds)", finite.len(), times.len()),
            ]);
        }
    };

    add_row(
        "voter",
        replicate(base_seed..base_seed + seeds, |s| {
            extinction_time(Voter, n, k, s, budget)
        }),
    );
    add_row(
        "2-choices",
        replicate(base_seed..base_seed + seeds, |s| {
            extinction_time(TwoChoices, n, k, s, budget)
        }),
    );
    add_row(
        "3-majority",
        replicate(base_seed..base_seed + seeds, |s| {
            extinction_time(ThreeMajority, n, k, s, budget)
        }),
    );
    add_row(
        "anti-voter (k=2)",
        replicate(base_seed..base_seed + seeds, |s| {
            extinction_time(AntiVoter, n, 2, s, budget)
        }),
    );
    add_row(
        "diversification",
        replicate(base_seed..base_seed + seeds, |s| {
            diversification_extinction(n, k, s, budget)
        }),
    );

    let mut report = Report::new(
        format!("t7_baselines (n = {n}, k = {k}, budget = 20 n^2 steps)"),
        table,
    );
    report.set_engine("agent");
    report.note(
        "shape check: every consensus protocol loses a colour within the budget; \
         Diversification (and Anti-Voter, the k = 2 special case) never does — \
         the crossover the paper's introduction claims.",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consensus_kills_diversification_sustains() {
        let report = run(Preset::Quick, 41);
        let text = report.render();
        // Diversification row must be censored.
        let div_row = text
            .lines()
            .find(|l| l.trim_start().starts_with("diversification"))
            .expect("diversification row");
        assert!(div_row.contains("sustained"), "{text}");
        // Voter row must be finite.
        let voter_row = text
            .lines()
            .find(|l| l.trim_start().starts_with("voter"))
            .expect("voter row");
        assert!(voter_row.contains("dies"), "{text}");
    }

    #[test]
    fn two_choices_faster_than_voter() {
        // 2-Choices amplifies drift; its extinction time should not exceed
        // Voter's by much. We check both are finite at small n.
        let t_voter = extinction_time(Voter, 128, 4, 5, 2_000_000);
        let t_two = extinction_time(TwoChoices, 128, 4, 5, 2_000_000);
        assert!(t_voter.is_some() && t_two.is_some());
    }
}
