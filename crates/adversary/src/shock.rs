//! Individual structural changes.

use pp_core::{AgentState, Colour};
use pp_engine::Engine;
use rand::{Rng, RngExt};

/// A structural change an adversary (or the environment) applies to a
/// running population between time-steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shock {
    /// Add `count` new agents, all in the given state. The paper requires
    /// injected states to be **dark** for sustainability to extend to them;
    /// light injections are allowed here to study the unprotected case.
    AddAgents {
        /// Number of agents to add.
        count: usize,
        /// State of every added agent.
        state: AgentState,
    },
    /// Introduce (or reinforce) a colour by recolouring `recruits` random
    /// agents to `(colour, dark)` — the paper's "nature changes the colour
    /// of an agent by a completely new one" (an ant starts fanning).
    InjectColour {
        /// The colour to inject; must be within the protocol's weight table.
        colour: Colour,
        /// How many random agents are converted.
        recruits: usize,
    },
    /// Retire a colour: every supporter of `colour` is recoloured to
    /// `(replacement, dark)` — "a task is fulfilled and no longer
    /// necessary". This deliberately violates sustainability for the
    /// retired colour; the claim under test is that the *rest* of the
    /// system re-balances.
    RetireColour {
        /// The colour being removed from the population.
        colour: Colour,
        /// The colour its supporters convert to.
        replacement: Colour,
    },
    /// Remove `count` uniformly random agents (e.g. foragers lost to a
    /// rival colony). May erase a colour entirely if it hits the last
    /// supporters; experiments use it to probe the boundary of the
    /// robustness claim.
    RemoveAgents {
        /// Number of agents to remove.
        count: usize,
    },
}

impl Shock {
    /// Whether applying this shock changes the population size — and
    /// therefore requires a topology family with a canonical resize
    /// ([`Topology::resized`](pp_graph::Topology::resized) returning
    /// `Some`).
    pub fn resizes(&self) -> bool {
        matches!(self, Shock::AddAgents { .. } | Shock::RemoveAgents { .. })
    }

    /// Short stable label for tables and error messages.
    pub fn label(&self) -> &'static str {
        match self {
            Shock::AddAgents { .. } => "add_agents",
            Shock::InjectColour { .. } => "inject_colour",
            Shock::RetireColour { .. } => "retire_colour",
            Shock::RemoveAgents { .. } => "remove_agents",
        }
    }

    /// One representative instance of every shock variant, sized for a
    /// population of `n` agents over `k` colours. The model-check explorer
    /// enumerates these to check monotone invariants under each variant;
    /// `t14_adversary` uses them for its family × shock grid.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2` (retirement needs a distinct replacement colour).
    pub fn enumerate(n: usize, k: usize) -> Vec<Shock> {
        assert!(k >= 2, "shock enumeration needs at least 2 colours");
        vec![
            Shock::AddAgents {
                count: n.div_ceil(4).max(1),
                state: AgentState::dark(Colour::new(k - 1)),
            },
            Shock::InjectColour {
                colour: Colour::new(k - 1),
                recruits: (n / 3).max(1),
            },
            Shock::RetireColour {
                colour: Colour::new(0),
                replacement: Colour::new(1),
            },
            Shock::RemoveAgents {
                count: (n / 4).min(n.saturating_sub(2)),
            },
        ]
    }
}

/// Applies a shock to any engine tier between time-steps, through the
/// [`Engine`] structural-mutation surface: recolourings rewrite states,
/// agent addition/removal resizes the population (and therefore the
/// topology, via [`Topology::resized`](pp_graph::Topology::resized)).
///
/// RNG consumption is identical across tiers — the same `rng` stream
/// recruits the same agent indices on the generic, packed, turbo, and
/// sharded engines — so a generic and a packed run sharing both seeds
/// stay bit-identical through arbitrary shock sequences (verified by
/// `tests/adversary_equivalence.rs`).
///
/// # Panics
///
/// Panics if the shock would leave fewer than 2 agents, if a resizing
/// shock hits a topology family without a canonical resize, or if a
/// recolouring names an agent colour outside the population's weight
/// universe (checked downstream by `ConfigStats`).
pub fn apply<E>(shock: &Shock, sim: &mut E, rng: &mut dyn Rng)
where
    E: Engine<State = AgentState> + ?Sized,
{
    assert!(
        !shock.resizes() || sim.supports_resize(),
        "shock `{}` resizes the population, but topology family `{}` has no \
         canonical resize; use a resizable family (complete, cycle, path, star) \
         or a non-resizing shock",
        shock.label(),
        sim.topology_name()
    );
    match *shock {
        Shock::AddAgents { count, .. } => {
            pp_obs::obs_event!("adversary.shock", "add_agents", "count={count}")
        }
        Shock::InjectColour { colour, recruits } => pp_obs::obs_event!(
            "adversary.shock",
            "inject_colour",
            "colour={} recruits={recruits}",
            colour.index()
        ),
        Shock::RetireColour {
            colour,
            replacement,
        } => pp_obs::obs_event!(
            "adversary.shock",
            "retire_colour",
            "colour={} replacement={}",
            colour.index(),
            replacement.index()
        ),
        Shock::RemoveAgents { count } => {
            pp_obs::obs_event!("adversary.shock", "remove_agents", "count={count}")
        }
    }
    pp_obs::obs_count!("adversary.shocks", 1);
    match *shock {
        Shock::AddAgents { count, state } => {
            // One bulk resize, not `count` pushes: push_agent is O(n) on
            // the copy-rebuild tiers (sharded re-partitions per call), and
            // the shock consumes no RNG, so the bulk path is identical.
            let mut states = sim.snapshot();
            states.extend(std::iter::repeat_n(state, count));
            sim.set_states(&states);
        }
        Shock::InjectColour { colour, recruits } => {
            let n = sim.len();
            assert!(
                recruits <= n,
                "cannot recruit {recruits} agents from a population of {n}"
            );
            // Sample distinct agents by partial Fisher–Yates over indices,
            // against a snapshot so the draw stays a uniform distinct-agent
            // sample on every tier (including the dense adapter's
            // canonical ordering).
            let mut states = sim.snapshot();
            let mut indices: Vec<usize> = (0..n).collect();
            for slot in 0..recruits {
                let pick = rng.random_range(slot..n);
                indices.swap(slot, pick);
                states[indices[slot]] = AgentState::dark(colour);
            }
            sim.set_states(&states);
        }
        Shock::RetireColour {
            colour,
            replacement,
        } => {
            assert_ne!(colour, replacement, "retirement must change the colour");
            let mut states = sim.snapshot();
            for s in &mut states {
                if s.colour == colour {
                    *s = AgentState::dark(replacement);
                }
            }
            sim.set_states(&states);
        }
        Shock::RemoveAgents { count } => {
            let n = sim.len();
            assert!(
                n.saturating_sub(count) >= 2,
                "removing {count} of {n} agents would leave fewer than 2"
            );
            for _ in 0..count {
                let len = sim.len();
                let victim = rng.random_range(0..len);
                sim.swap_remove_agent(victim);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_core::{init, ConfigStats, Diversification, Weights};
    use pp_engine::{Engine, PackedSimulator, Simulator, TurboSimulator};
    use pp_graph::{Complete, Topology};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(n: usize, k: usize) -> Simulator<Diversification, Complete> {
        let weights = Weights::uniform(k);
        let states = init::all_dark_balanced(n, &weights);
        Simulator::new(Diversification::new(weights), Complete::new(n), states, 1)
    }

    #[test]
    fn add_agents_grows_population_and_topology() {
        let mut sim = setup(10, 2);
        let mut rng = StdRng::seed_from_u64(2);
        apply(
            &Shock::AddAgents {
                count: 5,
                state: AgentState::dark(Colour::new(1)),
            },
            &mut sim,
            &mut rng,
        );
        assert_eq!(sim.population().len(), 15);
        assert_eq!(sim.topology().len(), 15);
        // Simulation continues without panicking.
        sim.run(100);
    }

    #[test]
    fn inject_colour_converts_exactly_recruits() {
        let mut sim = setup(20, 3);
        let mut rng = StdRng::seed_from_u64(3);
        apply(
            &Shock::InjectColour {
                colour: Colour::new(2),
                recruits: 7,
            },
            &mut sim,
            &mut rng,
        );
        let stats = ConfigStats::from_states(sim.population().states(), 3);
        // Colour 2 had ~7 agents before; injection recolours random agents,
        // so its support is at least 7 and all recruits are dark.
        assert!(stats.colour_count(2) >= 7);
        assert_eq!(stats.population(), 20);
    }

    #[test]
    fn inject_distinct_agents() {
        // Recruiting n agents converts the whole population: distinctness.
        let mut sim = setup(12, 2);
        let mut rng = StdRng::seed_from_u64(4);
        apply(
            &Shock::InjectColour {
                colour: Colour::new(0),
                recruits: 12,
            },
            &mut sim,
            &mut rng,
        );
        let stats = ConfigStats::from_states(sim.population().states(), 2);
        assert_eq!(stats.colour_count(0), 12);
        assert_eq!(stats.dark_count(0), 12);
    }

    #[test]
    fn retire_colour_eliminates_it() {
        let mut sim = setup(20, 2);
        let mut rng = StdRng::seed_from_u64(5);
        apply(
            &Shock::RetireColour {
                colour: Colour::new(0),
                replacement: Colour::new(1),
            },
            &mut sim,
            &mut rng,
        );
        let stats = ConfigStats::from_states(sim.population().states(), 2);
        assert_eq!(stats.colour_count(0), 0);
        assert_eq!(stats.colour_count(1), 20);
    }

    #[test]
    fn remove_agents_shrinks() {
        let mut sim = setup(30, 2);
        let mut rng = StdRng::seed_from_u64(6);
        apply(&Shock::RemoveAgents { count: 10 }, &mut sim, &mut rng);
        assert_eq!(sim.population().len(), 20);
        assert_eq!(sim.topology().len(), 20);
        sim.run(100);
    }

    #[test]
    fn shocks_apply_identically_on_every_fast_tier() {
        // Same shock stream on the generic, packed, and turbo engines ⇒
        // identical post-shock configurations (no simulation steps in
        // between, so this isolates the structural surface itself).
        let weights = Weights::uniform(3);
        let states = init::all_dark_balanced(24, &weights);
        let shocks = [
            Shock::AddAgents {
                count: 6,
                state: AgentState::dark(Colour::new(2)),
            },
            Shock::InjectColour {
                colour: Colour::new(1),
                recruits: 9,
            },
            Shock::RetireColour {
                colour: Colour::new(0),
                replacement: Colour::new(2),
            },
            Shock::RemoveAgents { count: 8 },
        ];
        let mut generic = Simulator::new(
            Diversification::new(weights.clone()),
            Complete::new(24),
            states.clone(),
            1,
        );
        let mut packed = PackedSimulator::new(
            Diversification::new(weights.clone()),
            Complete::new(24),
            &states,
            1,
        );
        let mut turbo = TurboSimulator::<_, _, u8>::new(
            Diversification::new(weights.clone()),
            Complete::new(24),
            &states,
            1,
        );
        let mut rng_a = StdRng::seed_from_u64(9);
        let mut rng_b = StdRng::seed_from_u64(9);
        let mut rng_c = StdRng::seed_from_u64(9);
        for shock in &shocks {
            apply(shock, &mut generic, &mut rng_a);
            apply(shock, &mut packed, &mut rng_b);
            apply(shock, &mut turbo, &mut rng_c);
            assert_eq!(
                generic.population().states(),
                &packed.snapshot()[..],
                "packed diverged after {shock:?}"
            );
            assert_eq!(
                generic.population().states(),
                &turbo.snapshot()[..],
                "turbo diverged after {shock:?}"
            );
        }
    }

    #[test]
    #[should_panic(
        expected = "shock `add_agents` resizes the population, but topology family `torus4x5`"
    )]
    fn resizing_shock_on_fixed_family_names_both() {
        use pp_graph::Torus2d;
        let weights = Weights::uniform(2);
        let states = init::all_dark_balanced(20, &weights);
        let mut sim = Simulator::new(Diversification::new(weights), Torus2d::new(4, 5), states, 1);
        let mut rng = StdRng::seed_from_u64(11);
        apply(
            &Shock::AddAgents {
                count: 3,
                state: AgentState::dark(Colour::new(0)),
            },
            &mut sim,
            &mut rng,
        );
    }

    #[test]
    fn non_resizing_shocks_work_on_fixed_families() {
        use pp_graph::Torus2d;
        let weights = Weights::uniform(2);
        let states = init::all_dark_balanced(20, &weights);
        let mut sim = Simulator::new(Diversification::new(weights), Torus2d::new(4, 5), states, 1);
        let mut rng = StdRng::seed_from_u64(12);
        apply(
            &Shock::InjectColour {
                colour: Colour::new(1),
                recruits: 5,
            },
            &mut sim,
            &mut rng,
        );
        apply(
            &Shock::RetireColour {
                colour: Colour::new(0),
                replacement: Colour::new(1),
            },
            &mut sim,
            &mut rng,
        );
        assert_eq!(sim.population().len(), 20);
    }

    #[test]
    fn enumeration_covers_every_variant() {
        let shocks = Shock::enumerate(24, 3);
        let labels: Vec<_> = shocks.iter().map(Shock::label).collect();
        assert_eq!(
            labels,
            [
                "add_agents",
                "inject_colour",
                "retire_colour",
                "remove_agents"
            ]
        );
        assert!(shocks[0].resizes());
        assert!(!shocks[1].resizes());
        assert!(!shocks[2].resizes());
        assert!(shocks[3].resizes());
    }

    #[test]
    #[should_panic(expected = "fewer than 2")]
    fn remove_cannot_empty_population() {
        let mut sim = setup(5, 2);
        let mut rng = StdRng::seed_from_u64(7);
        apply(&Shock::RemoveAgents { count: 4 }, &mut sim, &mut rng);
    }

    #[test]
    #[should_panic(expected = "must change")]
    fn retire_requires_distinct_replacement() {
        let mut sim = setup(5, 2);
        let mut rng = StdRng::seed_from_u64(8);
        apply(
            &Shock::RetireColour {
                colour: Colour::new(0),
                replacement: Colour::new(0),
            },
            &mut sim,
            &mut rng,
        );
    }
}
