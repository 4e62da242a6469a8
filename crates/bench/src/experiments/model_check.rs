//! t16: the fail-closed model-check gate over the shipped protocols.
//!
//! Runs the bounded explorers from `pp-check` at small `n`: the full
//! Diversification gate on the complete graph (exhaustive count space +
//! dense rate/boundary agreement + tier reachability + shock invariants),
//! the per-agent explorer on the cycle, and the Voter baseline on both.
//! With `inject = true` the known-bad [`BuggedDiversification`] runs too,
//! and the gate must fail with a counterexample trace — that is the CI
//! `check-smoke` job's negative control.
//!
//! The report's `gate_failed` is set when any check failed (violations
//! found or exploration truncated); the `t16_model_check` bin turns it
//! into process exit code 3 ([`crate::output::EXIT_GATE_FAILURE`]).

use super::Report;
use crate::runner::Preset;
use pp_baselines::Voter;
use pp_check::{
    all_dark_balanced_words, check_agents, check_counts, gate_diversification_complete,
    population_conserved, support_never_grows, sustainability, BuggedDiversification, CheckReport,
};
use pp_core::{Diversification, Weights};
use pp_graph::Cycle;
use pp_stats::Table;

/// State cap for every exploration; at the gate's population sizes the
/// reachable spaces are far smaller, so hitting this cap means something
/// is wrong (and the run fails closed).
const MAX_STATES: usize = 5_000_000;

/// Folds one check report into the table: a summary row, one row per
/// violation, and the first counterexample trace into the notes.
fn record(table: &mut Table, notes: &mut Vec<String>, report: &CheckReport, failed: &mut bool) {
    let verdict = if report.passed() { "pass" } else { "FAIL" };
    table.row([
        report.protocol.as_str(),
        report.topology.as_str(),
        &report.n.to_string(),
        "summary",
        &format!(
            "states={} edges={} truncated={} violations={} => {}",
            report.states_explored,
            report.edges,
            report.truncated,
            report.violations.len(),
            verdict
        ),
    ]);
    for v in &report.violations {
        table.row([
            report.protocol.as_str(),
            report.topology.as_str(),
            &report.n.to_string(),
            "violation",
            &format!("{} [{}]: {}", v.property, v.cause.tag(), v.detail),
        ]);
    }
    if let Some(v) = report.violations.iter().find(|v| !v.trace.is_empty()) {
        notes.push(format!(
            "counterexample ({} on {}, n={}, property {}):",
            report.protocol, report.topology, report.n, v.property
        ));
        for line in v.render_trace() {
            notes.push(format!("  {line}"));
        }
    }
    if !report.passed() {
        *failed = true;
    }
}

/// Whether `PP_CHECK_INJECT` asks for the known-bad protocol: set to
/// anything but empty or `0`.
pub fn inject_from_env() -> bool {
    std::env::var("PP_CHECK_INJECT").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Runs the gate; the report's `gate_failed` says whether any check failed.
pub fn run(preset: Preset, inject: bool) -> Report {
    let weights = Weights::new(vec![1.0, 2.0]).expect("static weight table");
    let k = weights.len();
    let n_complete = preset.pick(10, 12) as u64;
    let n_cycle = preset.pick(7, 8);
    let n_voter = 12usize;
    let tier_steps = preset.pick(60, 200);

    let mut table = Table::new(["protocol", "topology", "n", "kind", "detail"]);
    let mut notes = Vec::new();
    let mut failed = false;

    // Full gate: count exploration + dense rates/boundaries + tier
    // reachability + shock invariants, all on the complete graph.
    let gate = gate_diversification_complete(
        &Diversification::new(weights.clone()),
        n_complete,
        MAX_STATES,
        tier_steps,
    );
    record(&mut table, &mut notes, &gate, &mut failed);

    // Per-agent exploration on a sparse topology: the cycle has no
    // count-based shortcut, so this walks the full labelled state space.
    let cycle_seed = all_dark_balanced_words(n_cycle, k);
    let cycle = check_agents(
        &Diversification::new(weights.clone()),
        &Cycle::new(n_cycle),
        &cycle_seed,
        2 * k as u32,
        1,
        &[population_conserved(n_cycle as u64), sustainability(k)],
        MAX_STATES,
    );
    record(&mut table, &mut notes, &cycle, &mut failed);

    // Voter baseline: support is monotone non-increasing (an extinct
    // colour never revives) on both explorers.
    let voter_counts = vec![n_voter as u64 / 3; 3];
    let voter_complete = check_counts(
        &Voter,
        &voter_counts,
        1,
        &[
            population_conserved(n_voter as u64),
            support_never_grows(&voter_counts),
        ],
        MAX_STATES,
    );
    record(&mut table, &mut notes, &voter_complete, &mut failed);

    let voter_words: Vec<u32> = (0..n_voter as u32).map(|i| i % 3).collect();
    let voter_cycle = check_agents(
        &Voter,
        &Cycle::new(n_voter),
        &voter_words,
        3,
        1,
        &[
            population_conserved(n_voter as u64),
            support_never_grows(&voter_counts),
        ],
        MAX_STATES,
    );
    record(&mut table, &mut notes, &voter_cycle, &mut failed);

    if inject {
        // Negative control: the rule-2 bug is bit-exact across tiers (the
        // statistical harness cannot reject it) but kills the last dark
        // agent in a corner the explorer reaches. The gate MUST fail here.
        notes.push("PP_CHECK_INJECT=1: running the known-bad protocol; a FAIL below is the expected outcome".to_string());
        let bugged = gate_diversification_complete(
            &BuggedDiversification::new(weights.clone()),
            n_complete,
            MAX_STATES,
            tier_steps,
        );
        record(&mut table, &mut notes, &bugged, &mut failed);
        if bugged.passed() {
            notes.push(
                "ERROR: the injected bug slipped through the gate — the checker itself is broken"
                    .to_string(),
            );
            failed = true;
        }
    }

    notes.push(format!(
        "fail-closed gate verdict: {}",
        if failed {
            "FAIL (exit 3, see counterexample above)"
        } else {
            "all properties verified on the full reachable set"
        }
    ));

    let mut report = Report::new(
        "t16_model_check: exhaustive small-n invariant explorer",
        table,
    );
    for n in notes {
        report.note(n);
    }
    report.set_engine("multi");
    report
        .param("n_complete", n_complete)
        .param("n_cycle", n_cycle)
        .param("n_voter", n_voter)
        .param("colours", k)
        .param("max_states", MAX_STATES)
        .param("inject", inject);
    report.gate_failed = failed;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_protocols_pass_the_gate() {
        let report = run(Preset::Quick, false);
        assert!(!report.gate_failed, "notes: {:?}", report.notes);
        // One summary row per check, no violation rows.
        assert_eq!(report.table.rows().len(), 4);
        assert!(report
            .table
            .rows()
            .iter()
            .all(|r| r[3] == "summary" && r[4].ends_with("=> pass")));
    }

    #[test]
    fn injected_bug_fails_the_gate_with_a_trace() {
        let report = run(Preset::Quick, true);
        assert!(report.gate_failed, "the injected bug must trip the gate");
        assert!(report
            .table
            .rows()
            .iter()
            .any(|r| r[0] == "bugged-diversification" && r[3] == "violation"));
        assert!(
            report.notes.iter().any(|n| n.contains("counterexample")),
            "the artifact must carry the counterexample trace"
        );
    }
}
