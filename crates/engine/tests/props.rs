//! Property-based tests for the engine: scheduler invariants that every
//! protocol run must satisfy.

use pp_engine::{Protocol, Simulator};
use pp_graph::{Complete, Cycle, Topology};
use proptest::prelude::*;
use rand::Rng;

/// A conservation-friendly protocol: agents carry tokens and the scheduled
/// agent sets its count to the observed count (Voter on integers).
#[derive(Debug)]
struct Adopt;

impl Protocol for Adopt {
    type State = u32;

    fn transition(&self, _me: &u32, observed: &[&u32], _rng: &mut dyn Rng) -> u32 {
        *observed[0]
    }

    fn name(&self) -> String {
        "adopt".into()
    }
}

/// Marks agents that were ever activated.
#[derive(Debug)]
struct MarkActive;

impl Protocol for MarkActive {
    type State = bool;

    fn transition(&self, _me: &bool, _observed: &[&bool], _rng: &mut dyn Rng) -> bool {
        true
    }

    fn name(&self) -> String {
        "mark".into()
    }
}

proptest! {
    #[test]
    fn population_size_is_invariant(n in 2usize..50, steps in 0u64..2000, seed in 0u64..50) {
        let mut sim = Simulator::new(Adopt, Complete::new(n), (0..n as u32).collect(), seed);
        sim.run(steps);
        prop_assert_eq!(sim.population().len(), n);
        prop_assert_eq!(sim.step_count(), steps);
    }

    #[test]
    fn values_never_invented(n in 2usize..30, steps in 0u64..2000, seed in 0u64..50) {
        // Adopt only copies existing values, so the value set can only shrink.
        let init: Vec<u32> = (0..n as u32).collect();
        let mut sim = Simulator::new(Adopt, Complete::new(n), init.clone(), seed);
        sim.run(steps);
        for &s in sim.population().states() {
            prop_assert!(init.contains(&s));
        }
    }

    #[test]
    fn scheduler_eventually_touches_everyone(n in 2usize..20, seed in 0u64..50) {
        let mut sim = Simulator::new(MarkActive, Complete::new(n), vec![false; n], seed);
        // Coupon collector: 20 * n * ln(n) + 200 steps is astronomically safe.
        let budget = (20.0 * n as f64 * (n as f64).ln()) as u64 + 200;
        sim.run(budget);
        prop_assert!(sim.population().states().iter().all(|&b| b));
    }

    #[test]
    fn determinism_across_topologies(n in 3usize..20, steps in 0u64..500, seed in 0u64..50) {
        let run = |seed| {
            let mut sim = Simulator::new(Adopt, Cycle::new(n), (0..n as u32).collect(), seed);
            sim.run(steps);
            sim.into_population().into_states()
        };
        prop_assert_eq!(run(seed), run(seed));
    }

    #[test]
    fn cycle_runs_stay_local(seed in 0u64..20) {
        // On a cycle, value 0 can only spread one hop per adoption; after few
        // steps distant agents must still hold their original values.
        let n = 30;
        let init: Vec<u32> = (0..n as u32).collect();
        let mut sim = Simulator::new(Adopt, Cycle::new(n), init, seed);
        sim.run(3);
        // At most 3 agents changed.
        let changed = sim
            .population()
            .iter()
            .filter(|&(i, &s)| s != i as u32)
            .count();
        prop_assert!(changed <= 3);
    }
}

#[test]
fn topology_len_checked_against_population() {
    let sim = Simulator::new(Adopt, Complete::new(5), (0..5).collect(), 0);
    assert_eq!(sim.topology().len(), sim.population().len());
}

/// Satellite guarantee for the work-stealing sweep: scheduling is pure
/// plumbing. Whatever interleaving the thread pool produces, the results
/// of `sweep_grid` must be **byte-identical** to a sequential reference
/// run of the same deterministic per-cell function — here a real packed
/// simulation per (job, seed) cell, so the test exercises the exact usage
/// pattern of the topology experiments.
#[test]
fn sweep_grid_matches_sequential_reference_byte_for_byte() {
    use pp_engine::{sweep_grid, Engine, PackedProtocol, PackedSimulator};

    #[derive(Debug, Clone)]
    struct PackedAdopt;

    impl PackedProtocol for PackedAdopt {
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
            "packed-adopt".into()
        }
    }

    // Heterogeneous cell costs (different sizes and step counts), so the
    // work-stealing pool genuinely scrambles completion order.
    let sizes = [24usize, 96, 48, 160];
    let seeds: Vec<u64> = (0..6).collect();
    let cell = |job: usize, seed: u64| -> Vec<u32> {
        let n = sizes[job];
        let init: Vec<u32> = (0..n as u32).collect();
        let mut sim = PackedSimulator::new(PackedAdopt, Cycle::new(n), &init, seed);
        sim.run(n as u64 * 40);
        sim.states_packed().to_vec()
    };

    let pooled = sweep_grid(sizes.len(), &seeds, cell);
    // Sequential reference: plain nested loops, no pool.
    let reference: Vec<Vec<Vec<u32>>> = (0..sizes.len())
        .map(|job| seeds.iter().map(|&s| cell(job, s)).collect())
        .collect();
    assert_eq!(
        pooled, reference,
        "work-stealing sweep diverged from the sequential reference"
    );

    // And the pooled result is itself reproducible run to run.
    assert_eq!(pooled, sweep_grid(sizes.len(), &seeds, cell));
}
