//! Adversary-on-the-fast-path contract tests.
//!
//! The `pp-adversary` suite (shocks, schedules, churn, recovery) is
//! generic over `pp_engine::Engine`; this file verifies that the port
//! preserved both equivalence tiers:
//!
//! * **bit-exact tier** — the generic `Simulator` and the
//!   `PackedSimulator` consume shock/churn RNG identically, so a shared
//!   `(engine seed, adversary seed)` pair yields *identical trajectories*
//!   through arbitrary shock schedules and churn streams;
//! * **statistical tier** — the turbo engine's counter-based randomness
//!   must simulate the same *process* under adversarial workloads:
//!   packed-vs-turbo ensembles are compared through the
//!   `pp_stats::EquivalenceSuite` battery (chi-square terminal
//!   histograms, KS on churn-error and recovery-time distributions,
//!   moment checks), for Diversification churn + shock recovery and for
//!   Voter churn (the multi-protocol reset path, `Churn::run_with`), on
//!   the complete graph and the torus.
//!
//! Power is demonstrated by `biased_reset_churn_bug_is_rejected`: a
//! sabotaged run whose churn resets draw colours from `0..k−1` instead
//! of `0..k` — the classic off-by-one range bug a port introduces, which
//! slowly drains the never-reinjected colour — must be rejected at
//! `p < 10⁻⁶`. The ensembles use the fixed 48-seed count and the
//! rejection check of the shared harness in `tests/common`.

mod common;

use common::{assert_rejected_below_1e6, balanced_colours, N, SEEDS};
use pp_adversary::{error_under_churn, recovery_time, Churn, Schedule, Shock};
use pp_baselines::Voter;
use pp_core::{
    init,
    packed::{config_stats_from_class_counts, pack_state},
    region::GoodSet,
    AgentState, Colour, Diversification, Weights,
};
use pp_engine::{replicate, Engine, PackedSimulator, Simulator, TurboSimulator};
use pp_graph::{Complete, Torus2d};
use pp_stats::EquivalenceSuite;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn weights3() -> Weights {
    Weights::uniform(3)
}

// ---------------------------------------------------------------------------
// Bit-exact tier: generic vs packed through shocks and churn.
// ---------------------------------------------------------------------------

#[test]
fn shock_schedule_trajectories_are_bit_exact_generic_vs_packed() {
    // A schedule exercising every shock variant, with real simulation
    // steps between events: the generic and packed engines must agree
    // state-for-state at every observation (they are bit-exact twins, and
    // the adversary consumes its own RNG stream identically on both).
    let w = weights3();
    let schedule = Schedule::new(vec![
        (
            400,
            Shock::AddAgents {
                count: 40,
                state: AgentState::dark(Colour::new(2)),
            },
        ),
        (
            900,
            Shock::InjectColour {
                colour: Colour::new(0),
                recruits: 30,
            },
        ),
        (
            1_500,
            Shock::RetireColour {
                colour: Colour::new(1),
                replacement: Colour::new(2),
            },
        ),
        (2_200, Shock::RemoveAgents { count: 50 }),
    ]);
    for seed in [1u64, 9, 33, 77] {
        let states = init::all_dark_balanced(N, &w);
        let mut generic = Simulator::new(
            Diversification::new(w.clone()),
            Complete::new(N),
            states.clone(),
            seed,
        );
        let mut packed = PackedSimulator::new(
            Diversification::new(w.clone()),
            Complete::new(N),
            &states,
            seed,
        );
        let mut rng_a = StdRng::seed_from_u64(1_000 + seed);
        let mut rng_b = StdRng::seed_from_u64(1_000 + seed);
        let mut snaps: Vec<(u64, Vec<AgentState>)> = Vec::new();
        schedule.run(&mut generic, 3_000, &mut rng_a, |t, e| {
            snaps.push((t, e.snapshot()));
        });
        let mut i = 0;
        schedule.run(&mut packed, 3_000, &mut rng_b, |t, e| {
            let (gt, gstates) = &snaps[i];
            assert_eq!(t, *gt, "seed {seed}: event step diverged");
            assert_eq!(
                &e.snapshot(),
                gstates,
                "seed {seed}: trajectory diverged at step {t}"
            );
            i += 1;
        });
        assert_eq!(i, snaps.len(), "seed {seed}: event count diverged");
    }
}

#[test]
fn churn_trajectories_are_bit_exact_generic_vs_packed_on_torus() {
    // Same contract for churn, on a non-complete topology (the
    // combination the old per-engine code paths could not reach with the
    // generic engine's checker stack).
    let w = weights3();
    for seed in [2u64, 18] {
        let states = init::all_dark_balanced(N, &w);
        let mut generic = Simulator::new(
            Diversification::new(w.clone()),
            Torus2d::new(16, 16),
            states.clone(),
            seed,
        );
        let mut packed = PackedSimulator::new(
            Diversification::new(w.clone()),
            Torus2d::new(16, 16),
            &states,
            seed,
        );
        let churn = Churn::new(32, w.len());
        let mut rng_a = StdRng::seed_from_u64(2_000 + seed);
        let mut rng_b = StdRng::seed_from_u64(2_000 + seed);
        let mut snaps = Vec::new();
        churn.run(&mut generic, 4_000, &mut rng_a, |t, e| {
            snaps.push((t, e.snapshot()));
        });
        let mut i = 0;
        churn.run(&mut packed, 4_000, &mut rng_b, |t, e| {
            assert_eq!((t, e.snapshot()), snaps[i], "seed {seed} diverged");
            i += 1;
        });
        assert_eq!(i, snaps.len());
    }
}

// ---------------------------------------------------------------------------
// Statistical tier: packed vs turbo under adversarial workloads.
// ---------------------------------------------------------------------------

/// One seed's reduced observables for the Diversification battery.
struct DivRecord {
    /// Mean diversity error under churn (the dynamic-equilibrium level).
    churn_err: f64,
    /// Dark fraction at the end of the churn window.
    final_dark: f64,
    /// Probe agent's terminal packed state.
    probe: u32,
    /// Steps to re-enter `E(δ)` after a colour injection (capped).
    recovery: f64,
}

/// Drives one seed of the Diversification churn + shock battery on any
/// engine. `biased_reset` is the sabotage switch for the power test:
/// churn resets draw their colour from `0..k−1` instead of `0..k` (the
/// off-by-one range bug), so colour `k−1` is never reinjected and churn
/// slowly drains it.
fn div_record<E>(mut sim: E, churn_seed: u64, biased_reset: bool) -> DivRecord
where
    E: Engine<State = AgentState>,
{
    let w = weights3();
    let k = w.len();
    let nln = N as f64 * (N as f64).ln();
    sim.run(pp_core::theory::convergence_budget(N, w.total(), 4.0));
    let interval = N as u64 / 16;
    let horizon = (20.0 * nln) as u64;
    let mut churn_rng = StdRng::seed_from_u64(churn_seed);
    let churn_err = if biased_reset {
        // Same loop shape as `error_under_churn`, with the sabotaged
        // reset law spliced in through the generic `run_with` path.
        let churn = Churn::new(interval, k);
        let w_obs = w.clone();
        let mut total = 0.0;
        let mut samples = 0u64;
        churn.run_with(
            &mut sim,
            horizon,
            &mut churn_rng,
            |r| AgentState::dark(Colour::new(rand::RngExt::random_range(r, 0..k - 1))),
            |_, e| {
                let stats = config_stats_from_class_counts(&e.class_counts(), k);
                total += stats.max_diversity_error(&w_obs);
                samples += 1;
            },
        );
        total / samples.max(1) as f64
    } else {
        error_under_churn(&mut sim, &w, interval, horizon, &mut churn_rng)
    };
    let counts = sim.class_counts();
    let stats = config_stats_from_class_counts(&counts, k);
    let final_dark = (0..k).map(|i| stats.dark_count(i)).sum::<usize>() as f64 / N as f64;
    let probe = pack_state(&sim.state(0));
    let good = GoodSet::new(w.clone(), 0.3);
    let budget = pp_core::theory::convergence_budget(N, w.total(), 64.0);
    let mut shock_rng = StdRng::seed_from_u64(9_000 + churn_seed);
    let recovery = recovery_time(
        &mut sim,
        &Shock::InjectColour {
            colour: Colour::new(0),
            recruits: N / 8,
        },
        &good,
        &mut shock_rng,
        budget,
        N as u64 / 4,
    )
    .unwrap_or(budget) as f64;
    DivRecord {
        churn_err,
        final_dark,
        probe,
        recovery,
    }
}

/// Probe-state histogram over `2k` packed words.
fn probe_counts(records: &[DivRecord], categories: usize) -> Vec<u64> {
    let mut counts = vec![0u64; categories];
    for r in records {
        counts[r.probe as usize] += 1;
    }
    counts
}

/// Runs the Diversification battery for one family on packed vs turbo and
/// records it into `suite`. `sabotage` switches the turbo side onto the
/// biased reset law (power test).
fn div_battery<T>(suite: &mut EquivalenceSuite, label: &str, topology: T, sabotage: bool)
where
    T: pp_graph::Topology + Clone,
{
    let w = weights3();
    let packed: Vec<DivRecord> = replicate(0..SEEDS, |s| {
        let states = init::all_dark_balanced(N, &w);
        let sim = PackedSimulator::new(
            Diversification::new(w.clone()),
            topology.clone(),
            &states,
            3_000 + s,
        );
        div_record(sim, 5_000 + s, false)
    });
    let turbo: Vec<DivRecord> = replicate(0..SEEDS, |s| {
        let states = init::all_dark_balanced(N, &w);
        let sim = TurboSimulator::<_, _, u8>::new(
            Diversification::new(w.clone()),
            topology.clone(),
            &states,
            700_000 + s,
        );
        div_record(sim, 5_000 + s, sabotage)
    });

    let col =
        |rs: &[DivRecord], f: fn(&DivRecord) -> f64| -> Vec<f64> { rs.iter().map(f).collect() };
    suite.check_moments(
        format!("{label}: churn dynamic-equilibrium error"),
        &col(&packed, |r| r.churn_err),
        &col(&turbo, |r| r.churn_err),
    );
    suite.check_distribution(
        format!("{label}: churn error [KS]"),
        &col(&packed, |r| r.churn_err),
        &col(&turbo, |r| r.churn_err),
    );
    suite.check_moments(
        format!("{label}: post-churn dark fraction"),
        &col(&packed, |r| r.final_dark),
        &col(&turbo, |r| r.final_dark),
    );
    suite.check_counts(
        format!("{label}: post-churn probe-state histogram"),
        &probe_counts(&packed, 2 * weights3().len()),
        &probe_counts(&turbo, 2 * weights3().len()),
    );
    suite.check_distribution(
        format!("{label}: post-shock recovery time"),
        &col(&packed, |r| r.recovery),
        &col(&turbo, |r| r.recovery),
    );
}

#[test]
fn diversification_churn_and_shock_turbo_matches_packed() {
    let mut suite = EquivalenceSuite::new("adversary turbo-vs-packed: diversification", 1e-3);
    div_battery(&mut suite, "div-churn/complete", Complete::new(N), false);
    div_battery(&mut suite, "div-churn/torus", Torus2d::new(16, 16), false);
    suite.assert_pass();
}

/// One seed's observables for the Voter churn battery (multi-protocol
/// path: `Churn::run_with` with a colour-reset law).
fn voter_record<E>(mut sim: E, churn_seed: u64) -> (f64, f64, u32)
where
    E: Engine<State = Colour>,
{
    let k = 4usize;
    let nln = N as f64 * (N as f64).ln();
    let churn = Churn::new(N as u64 / 16, k);
    let mut rng = StdRng::seed_from_u64(churn_seed);
    let horizon = (20.0 * nln) as u64;
    let mut last_alive = 0.0;
    churn.run_with(
        &mut sim,
        horizon,
        &mut rng,
        |r| Colour::new(rand::RngExt::random_range(r, 0..k)),
        |_, e| {
            let counts = e.class_counts();
            last_alive = counts.iter().filter(|&&c| c > 0).count() as f64;
        },
    );
    let counts = sim.class_counts();
    let c0 = counts.first().copied().unwrap_or(0) as f64 / N as f64;
    (c0, last_alive, sim.state(0).index() as u32)
}

#[test]
fn voter_churn_turbo_matches_packed() {
    // Voter + churn is the consensus-vs-diversity tug of war: consensus
    // drifts colours extinct, churn keeps resurrecting them. Both engines
    // must produce the same equilibrium statistics.
    let k = 4usize;
    let mut suite = EquivalenceSuite::new("adversary turbo-vs-packed: voter churn", 1e-3);
    for (name, torus) in [("complete", None), ("torus", Some(Torus2d::new(16, 16)))] {
        let packed: Vec<(f64, f64, u32)> = replicate(0..SEEDS, |s| {
            let init = balanced_colours(k);
            match &torus {
                None => voter_record(
                    PackedSimulator::new(Voter, Complete::new(N), &init, 40_000 + s),
                    6_000 + s,
                ),
                Some(t) => voter_record(
                    PackedSimulator::new(Voter, *t, &init, 40_000 + s),
                    6_000 + s,
                ),
            }
        });
        let turbo: Vec<(f64, f64, u32)> = replicate(0..SEEDS, |s| {
            let init = balanced_colours(k);
            match &torus {
                None => voter_record(
                    TurboSimulator::<_, _, u8>::new(Voter, Complete::new(N), &init, 800_000 + s),
                    6_000 + s,
                ),
                Some(t) => voter_record(
                    TurboSimulator::<_, _, u8>::new(Voter, *t, &init, 800_000 + s),
                    6_000 + s,
                ),
            }
        });
        let col = |rs: &[(f64, f64, u32)], i: usize| -> Vec<f64> {
            rs.iter()
                .map(|r| match i {
                    0 => r.0,
                    _ => r.1,
                })
                .collect()
        };
        suite.check_moments(
            format!("voter-churn/{name}: colour-0 fraction"),
            &col(&packed, 0),
            &col(&turbo, 0),
        );
        suite.check_moments(
            format!("voter-churn/{name}: alive colours"),
            &col(&packed, 1),
            &col(&turbo, 1),
        );
        let hist = |rs: &[(f64, f64, u32)]| -> Vec<u64> {
            let mut counts = vec![0u64; k];
            for r in rs {
                counts[r.2 as usize] += 1;
            }
            counts
        };
        suite.check_counts(
            format!("voter-churn/{name}: probe-colour histogram"),
            &hist(&packed),
            &hist(&turbo),
        );
    }
    suite.assert_pass();
}

// ---------------------------------------------------------------------------
// Power: an injected adversary bug must be rejected.
// ---------------------------------------------------------------------------

#[test]
fn biased_reset_churn_bug_is_rejected() {
    // Sabotage: the turbo side's churn resets draw from `0..k−1` instead
    // of `0..k` — the off-by-one range bug a port introduces by
    // miscomputing the reset span. Colour k−1 is then never reinjected
    // while churn keeps overwriting its supporters, so its support drains
    // and the dynamic-equilibrium diversity error balloons; the battery
    // must reject equivalence decisively (p < 10⁻⁶).
    let mut suite = EquivalenceSuite::new("adversary biased-reset churn injection", 1e-3);
    div_battery(
        &mut suite,
        "div-churn/complete [biased reset]",
        Complete::new(N),
        true,
    );
    assert_rejected_below_1e6(&suite, "the biased churn reset law");
}
