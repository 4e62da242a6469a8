//! The model-check gate end to end: shipped protocols pass, the injected
//! bug is refuted with a counterexample trace, and the statistical
//! equivalence contract demonstrably cannot reject the injected bug.

use pp_baselines::Voter;
use pp_check::{
    all_dark_balanced_counts, all_dark_balanced_words, check_agents, check_counts, explore_agents,
    explore_counts, gate_diversification_complete, population_conserved, support_never_grows,
    sustainability, BuggedDiversification, Cause,
};
use pp_core::{init, Diversification, Weights};
use pp_engine::{Engine, PackedSimulator, Simulator};
use pp_graph::{Complete, Cycle};

fn weights() -> Weights {
    Weights::new(vec![1.0, 2.0]).unwrap()
}

#[test]
fn shipped_diversification_passes_the_full_gate() {
    let report = gate_diversification_complete(&Diversification::new(weights()), 10, 100_000, 60);
    assert!(report.passed(), "violations: {:#?}", report.violations);
    assert!(report.states_explored > 10, "exploration trivially small");
}

#[test]
fn bugged_diversification_is_refuted_with_a_trace() {
    let report =
        gate_diversification_complete(&BuggedDiversification::new(weights()), 10, 100_000, 60);
    assert!(!report.passed());
    let sustainability_violation = report
        .violations
        .iter()
        .find(|v| v.cause == Cause::LastDarkKilled)
        .expect("the explorer must find the killed last dark agent");
    assert!(
        !sustainability_violation.trace.is_empty(),
        "counterexample must carry a trace"
    );
    // The trace's final transition softens the last dark agent: the
    // violating configuration has a colour with zero dark count.
    let counts = &sustainability_violation.counts;
    assert!(
        counts[1] == 0 || counts[3] == 0,
        "violating counts {counts:?} still have all dark classes populated"
    );
}

#[test]
fn diversification_passes_per_agent_on_the_cycle() {
    let protocol = Diversification::new(weights());
    let seed = all_dark_balanced_words(7, 2);
    let report = check_agents(
        &protocol,
        &Cycle::new(7),
        &seed,
        4,
        1,
        &[population_conserved(7), sustainability(2)],
        2_000_000,
    );
    assert!(report.passed(), "violations: {:#?}", report.violations);
    assert!(report.states_explored > 100);
}

#[test]
fn bugged_diversification_fails_per_agent_on_the_cycle() {
    let protocol = BuggedDiversification::new(weights());
    let seed = all_dark_balanced_words(7, 2);
    let report = check_agents(
        &protocol,
        &Cycle::new(7),
        &seed,
        4,
        1,
        &[population_conserved(7), sustainability(2)],
        2_000_000,
    );
    assert!(!report.passed());
    assert!(report
        .violations
        .iter()
        .any(|v| v.cause == Cause::LastDarkKilled));
}

#[test]
fn voter_passes_on_complete_and_cycle() {
    // Voter over 3 colours: words are raw colour indices.
    let n = 12usize;
    let seed_counts = vec![4u64, 4, 4];
    let complete = check_counts(
        &Voter,
        &seed_counts,
        1,
        &[
            population_conserved(n as u64),
            support_never_grows(&seed_counts),
        ],
        1_000_000,
    );
    assert!(complete.passed(), "violations: {:#?}", complete.violations);

    let seed_words: Vec<u32> = (0..n as u32).map(|i| i % 3).collect();
    let mut seed_word_counts = vec![0u64; 3];
    for &w in &seed_words {
        seed_word_counts[w as usize] += 1;
    }
    let cycle = check_agents(
        &Voter,
        &Cycle::new(n),
        &seed_words,
        3,
        1,
        &[
            population_conserved(n as u64),
            support_never_grows(&seed_word_counts),
        ],
        2_000_000,
    );
    assert!(cycle.passed(), "violations: {:#?}", cycle.violations);
    assert!(cycle.states_explored > 1_000);
}

#[test]
fn protocol_without_rate_table_fails_closed() {
    // A protocol that keeps the default `outcomes` (None) must be
    // reported unverifiable, not silently passed.
    #[derive(Debug)]
    struct Opaque;
    impl pp_engine::PackedProtocol for Opaque {
        type State = u32;
        fn pack(&self, s: &u32) -> u32 {
            *s
        }
        fn unpack(&self, p: u32) -> u32 {
            p
        }
        fn transition<R: rand::Rng>(&self, _me: u32, observed: &[u32], _rng: &mut R) -> u32 {
            observed[0]
        }
        fn name(&self) -> String {
            "opaque".into()
        }
    }
    let report = check_counts(&Opaque, &[2, 2], 1, &[population_conserved(4)], 1_000);
    assert!(!report.passed());
    assert_eq!(report.violations[0].cause, Cause::Unverifiable);
}

#[test]
fn truncated_exploration_never_passes() {
    let protocol = Diversification::new(weights());
    let seed = all_dark_balanced_counts(12, 2);
    let report = check_counts(&protocol, &seed, 1, &[population_conserved(12)], 3);
    assert!(report.truncated);
    assert!(!report.passed());
}

#[test]
fn exploration_is_exhaustive_on_a_known_space() {
    // Voter, k = 2, complete, n = 4, seed (2, 2): reachable counts are
    // exactly (0,4), (1,3), (2,2), (3,1), (4,0) minus nothing — but
    // support monotonicity means extinct colours never revive, so from
    // (2,2) all five splits with both colours seeded are reachable:
    // (4,0) and (0,4) included (the last supporter can be converted).
    let expl = explore_counts(&Voter, &[2, 2], 1, 1_000).unwrap();
    assert_eq!(expl.configs.len(), 5);
    assert_eq!(
        {
            let mut c: Vec<Vec<u64>> = expl.configs.clone();
            c.sort();
            c
        },
        vec![vec![0, 4], vec![1, 3], vec![2, 2], vec![3, 1], vec![4, 0]]
    );
}

#[test]
fn per_agent_explorer_matches_count_explorer_on_complete() {
    // Same protocol, same seed, both explorers on the complete graph:
    // the per-agent reachable set, projected to counts, must equal the
    // count-based reachable set.
    let protocol = Diversification::new(weights());
    let n = 6usize;
    let seed_words = all_dark_balanced_words(n, 2);
    let seed_counts = all_dark_balanced_counts(n as u64, 2);
    let agents =
        explore_agents(&protocol, &Complete::new(n), &seed_words, 4, 1, 5_000_000).unwrap();
    let counts = explore_counts(&protocol, &seed_counts, 1, 1_000_000).unwrap();
    let mut projected: Vec<Vec<u64>> = agents
        .configs
        .iter()
        .map(|&key| agents.counts_of(key))
        .collect();
    projected.sort();
    projected.dedup();
    let mut exact: Vec<Vec<u64>> = counts.configs.clone();
    exact.sort();
    assert_eq!(projected, exact);
}

#[test]
fn bugged_protocol_is_invisible_to_bit_exact_equivalence() {
    // The statistical/bit-exact harness compares tiers against each
    // other; the injected bug is implemented consistently, so the
    // generic and packed engines agree bit for bit on it — which is
    // exactly why only exhaustive exploration can reject it.
    let w = weights();
    let states = init::all_dark_balanced(24, &w);
    let mut generic = Simulator::new(
        BuggedDiversification::new(w.clone()),
        Complete::new(24),
        states.clone(),
        3,
    );
    let mut packed = PackedSimulator::new(
        BuggedDiversification::new(w.clone()),
        Complete::new(24),
        &states,
        3,
    );
    for _ in 0..10 {
        generic.run(5_000);
        packed.run(5_000);
        assert_eq!(
            generic.population().states(),
            &packed.snapshot()[..],
            "tiers diverged — the bug would be statistically detectable"
        );
    }
}
