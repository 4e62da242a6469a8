//! Recovery-time measurement: the quantitative robustness claim.

use crate::{apply, Shock};
use pp_core::{packed::config_stats_from_class_counts, region::GoodSet, AgentState};
use pp_engine::Engine;
use rand::Rng;

/// Applies `shock` to a (presumably converged) engine of any tier and
/// returns the number of further time-steps until the configuration
/// re-enters the good set `E(δ)`, checking every `check_every` steps;
/// `None` if it does not recover within `max_steps`.
///
/// The paper's robustness statement — "even when an adversary adds agents
/// and colours, the protocol quickly returns into a state of diversity and
/// fairness" — predicts recovery in `O(w² n log n)` steps; experiments
/// `t6_sustainability` and `t14_adversary` report this measurement across
/// shock types and engine tiers.
///
/// # Examples
///
/// ```
/// use pp_adversary::{recovery_time, Shock};
/// use pp_core::{init, region::GoodSet, Colour, Diversification, Weights};
/// use pp_engine::{Engine, PackedSimulator};
/// use pp_graph::Complete;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let weights = Weights::uniform(2);
/// let n = 200;
/// let states = init::all_dark_balanced(n, &weights);
/// // Any engine tier works; here the packed fast path.
/// let mut sim = PackedSimulator::new(
///     Diversification::new(weights.clone()),
///     Complete::new(n),
///     &states,
///     5,
/// );
/// sim.run(100_000); // converge first
/// let good = GoodSet::new(weights, 0.25);
/// let mut rng = StdRng::seed_from_u64(6);
/// let t = recovery_time(
///     &mut sim,
///     &Shock::InjectColour { colour: Colour::new(0), recruits: 50 },
///     &good,
///     &mut rng,
///     2_000_000,
///     200,
/// );
/// assert!(t.is_some());
/// ```
///
/// # Panics
///
/// Panics if `check_every == 0`, or if the shock itself panics (resizing
/// shocks on non-resizable topology families, populations shrunk below 2).
pub fn recovery_time<E>(
    sim: &mut E,
    shock: &Shock,
    good: &GoodSet,
    shock_rng: &mut dyn Rng,
    max_steps: u64,
    check_every: u64,
) -> Option<u64>
where
    E: Engine<State = AgentState> + ?Sized,
{
    // Uniform guard at the entry point: the run_until impls differ in
    // where (and whether) they check, so enforce the documented contract
    // here with one message shared by every tier.
    assert!(check_every > 0, "check_every must be positive");
    apply(shock, sim, shock_rng);
    let start = sim.step_count();
    let k = good.weights().len();
    let recovered = sim
        .run_until(max_steps, check_every, &mut |counts, _| {
            good.contains(&config_stats_from_class_counts(counts, k))
        })
        .map(|hit| hit - start);
    match recovered {
        Some(t) => {
            pp_obs::obs_event!("adversary.recovery", "recovered", "steps={t}");
            pp_obs::obs_value!("adversary.recovery_steps", t);
        }
        None => pp_obs::obs_event!(
            "adversary.recovery",
            "timeout",
            "max_steps={max_steps} check_every={check_every}"
        ),
    }
    recovered
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_core::{init, Colour, Diversification, Weights};
    use pp_engine::{Simulator, TurboSimulator};
    use pp_graph::Complete;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn converged_sim(n: usize) -> (Simulator<Diversification, Complete>, GoodSet) {
        let weights = Weights::uniform(2);
        let states = init::all_dark_balanced(n, &weights);
        let mut sim = Simulator::new(
            Diversification::new(weights.clone()),
            Complete::new(n),
            states,
            21,
        );
        sim.run(60_000);
        (sim, GoodSet::new(weights, 0.3))
    }

    #[test]
    fn recovers_from_injection() {
        let (mut sim, good) = converged_sim(150);
        let mut rng = StdRng::seed_from_u64(22);
        let t = recovery_time(
            &mut sim,
            &Shock::InjectColour {
                colour: Colour::new(0),
                recruits: 60,
            },
            &good,
            &mut rng,
            3_000_000,
            150,
        );
        assert!(t.is_some(), "no recovery from colour injection");
    }

    #[test]
    fn recovers_from_agent_addition() {
        let (mut sim, good) = converged_sim(150);
        let mut rng = StdRng::seed_from_u64(23);
        let t = recovery_time(
            &mut sim,
            &Shock::AddAgents {
                count: 80,
                state: AgentState::dark(Colour::new(1)),
            },
            &good,
            &mut rng,
            3_000_000,
            150,
        );
        assert!(t.is_some(), "no recovery from agent addition");
    }

    #[test]
    fn recovers_on_the_turbo_tier_too() {
        // The same measurement on the counter-based fast engine, including
        // a population-resizing shock (AddAgents → Complete::resized).
        let weights = Weights::uniform(2);
        let n = 150;
        let states = init::all_dark_balanced(n, &weights);
        let mut sim = TurboSimulator::<_, _, u8>::new(
            Diversification::new(weights.clone()),
            Complete::new(n),
            &states,
            21,
        );
        sim.run(60_000);
        let good = GoodSet::new(weights, 0.3);
        let mut rng = StdRng::seed_from_u64(25);
        let t = recovery_time(
            &mut sim,
            &Shock::AddAgents {
                count: 80,
                state: AgentState::dark(Colour::new(1)),
            },
            &good,
            &mut rng,
            3_000_000,
            150,
        );
        assert!(t.is_some(), "no turbo recovery from agent addition");
        assert_eq!(pp_engine::Engine::len(&sim), n + 80);
    }

    #[test]
    fn bigger_shock_takes_longer_on_average() {
        // Average over seeds to avoid single-run noise.
        let mut small_total = 0u64;
        let mut large_total = 0u64;
        for seed in 0..5u64 {
            for (recruits, total) in [(15usize, &mut small_total), (70, &mut large_total)] {
                let weights = Weights::uniform(2);
                let n = 150;
                let states = init::all_dark_balanced(n, &weights);
                let mut sim = Simulator::new(
                    Diversification::new(weights.clone()),
                    Complete::new(n),
                    states,
                    100 + seed,
                );
                sim.run(60_000);
                let good = GoodSet::new(weights, 0.3);
                let mut rng = StdRng::seed_from_u64(200 + seed);
                let t = recovery_time(
                    &mut sim,
                    &Shock::InjectColour {
                        colour: Colour::new(0),
                        recruits,
                    },
                    &good,
                    &mut rng,
                    5_000_000,
                    150,
                )
                .expect("recovery");
                *total += t;
            }
        }
        assert!(
            large_total >= small_total,
            "large {large_total} vs small {small_total}"
        );
    }

    #[test]
    fn zero_check_every_panics_uniformly_on_every_tier() {
        use pp_engine::{PackedSimulator, ShardedSimulator, VecSimulator};

        let weights = Weights::uniform(2);
        let n = 20;
        let states = init::all_dark_balanced(n, &weights);
        let proto = || Diversification::new(weights.clone());
        let mut tiers: Vec<(&str, Box<dyn Engine<State = AgentState>>)> = vec![
            (
                "agent",
                Box::new(Simulator::new(proto(), Complete::new(n), states.clone(), 1)),
            ),
            (
                "packed",
                Box::new(PackedSimulator::new(proto(), Complete::new(n), &states, 1)),
            ),
            (
                "turbo",
                Box::new(TurboSimulator::<_, _, u8>::new(
                    proto(),
                    Complete::new(n),
                    &states,
                    1,
                )),
            ),
            (
                "sharded",
                Box::new(ShardedSimulator::<_, _, u8>::new(
                    proto(),
                    Complete::new(n),
                    &states,
                    1,
                )),
            ),
            (
                "vec",
                Box::new(VecSimulator::<_, _, u8, 1>::from_seed(
                    proto(),
                    Complete::new(n),
                    &states,
                    1,
                )),
            ),
        ];
        let good = GoodSet::new(weights.clone(), 0.3);
        let mut messages = Vec::new();
        for (name, sim) in &mut tiers {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut rng = StdRng::seed_from_u64(30);
                recovery_time(
                    sim.as_mut(),
                    &Shock::InjectColour {
                        colour: Colour::new(0),
                        recruits: 2,
                    },
                    &good,
                    &mut rng,
                    100,
                    0,
                );
            }));
            let payload = result.expect_err(&format!("{name} accepted check_every == 0"));
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            messages.push((*name, msg));
        }
        for (name, msg) in &messages {
            assert_eq!(
                msg, "check_every must be positive",
                "tier {name} panicked with a different message"
            );
        }
    }

    #[test]
    fn timeout_returns_none() {
        let (mut sim, good) = converged_sim(150);
        let mut rng = StdRng::seed_from_u64(24);
        // A huge shock with a tiny budget cannot recover.
        let t = recovery_time(
            &mut sim,
            &Shock::InjectColour {
                colour: Colour::new(0),
                recruits: 140,
            },
            &good,
            &mut rng,
            10,
            5,
        );
        assert_eq!(t, None);
    }
}
