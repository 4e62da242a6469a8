//! Vec-vs-packed statistical equivalence, **per lane**, plus the
//! one-lane bit-exactness contract vs turbo.
//!
//! The lane-parallel [`VecSimulator`] steps `L` replicas of one
//! `(topology, protocol)` pair in lockstep: a shared schedule walk picks
//! the same agent in every lane, and per-lane counter streams drive each
//! lane's partner draws and transition randomness. Its contract has two
//! halves, and this suite tests both:
//!
//! * **Bit-exact at `L = 1`**: with the lane seed equal to the master
//!   seed, the single lane replays the turbo engine's trajectory
//!   word-for-word — the vec tier is a strict generalisation, not a
//!   third randomness dialect. (`one_lane_vec_is_bit_exact_vs_turbo...`)
//! * **Distributional per lane at `L > 1`**: every lane of a multi-lane
//!   ensemble must look like an independent draw of the same Markov
//!   chain the bit-exact engines simulate. Lanes of one group share the
//!   schedule, so the harness gives every `L = 8` group its own master
//!   seed and treats each lane as one seed's run, then feeds the lanes
//!   through the battery in `tests/common` that the turbo and sharded
//!   suites use, for all five protocols. The 2-Choices and 3-Majority
//!   cells check the lane loop's multi-observation gather.

mod common;

use common::{balanced_colours, family_battery, Candidate, Protocol, CHECK, N};
use pp_baselines::TwoChoices;
use pp_core::{init, Diversification, Weights};
use pp_engine::{replicate_vec, Engine, TurboSimulator, VecSimulator};
use pp_graph::{Cycle, Torus2d};

/// The `L = 1` contract: with the lane seed equal to the master seed,
/// the vec engine replays the turbo trajectory **bit-for-bit** — on a
/// one-observation protocol (Diversification, torus) and a
/// two-observation one (2-Choices, ring), checked at every `CHECK`-step
/// boundary, not just at the end.
#[test]
fn one_lane_vec_is_bit_exact_vs_turbo_shared_seed() {
    let w = Weights::new(vec![1.0, 1.0, 2.0, 4.0]).unwrap();
    let init_div = init::all_dark_balanced(N, &w);
    for seed in [3u64, 0xDEAD_BEEF] {
        let mut turbo = TurboSimulator::<_, _, u8>::new(
            Diversification::new(w.clone()),
            Torus2d::new(16, 16),
            &init_div,
            seed,
        );
        let mut vec = VecSimulator::<_, _, u8, 1>::from_seed(
            Diversification::new(w.clone()),
            Torus2d::new(16, 16),
            &init_div,
            seed,
        );
        for chunk in 0..32 {
            turbo.run(CHECK);
            vec.run(CHECK);
            assert_eq!(
                turbo.states_packed(),
                vec.lane_states_packed(0),
                "diversification diverged at chunk {chunk}, seed {seed}"
            );
        }
    }

    let init_cons = balanced_colours(4);
    for seed in [7u64, 99] {
        let mut turbo =
            TurboSimulator::<_, _, u8>::new(TwoChoices, Cycle::new(N), &init_cons, seed);
        let mut vec =
            VecSimulator::<_, _, u8, 1>::from_seed(TwoChoices, Cycle::new(N), &init_cons, seed);
        for chunk in 0..32 {
            turbo.run(CHECK);
            vec.run(CHECK);
            assert_eq!(
                turbo.states_packed(),
                vec.lane_states_packed(0),
                "2-choices diverged at chunk {chunk}, seed {seed}"
            );
        }
    }
}

/// The ensemble front-end's grouping invariance through the public API:
/// a seed count not divisible by the lane width produces byte-identical
/// per-seed results vs one-lane runs of the same engine.
#[test]
fn ensemble_remainders_match_one_lane_runs() {
    let w = Weights::new(vec![1.0, 1.0, 2.0, 4.0]).unwrap();
    let protocol = Diversification::new(w.clone());
    let topology = Torus2d::new(5, 8);
    let init = init::all_dark_balanced(40, &w);
    let master = 11;
    let steps = 4_000;
    let seeds: Vec<u64> = (0..11).map(|s| 60 + 7 * s).collect();
    let ensemble = replicate_vec::<_, _, u8, 8, _>(
        &protocol,
        &topology,
        &init,
        master,
        &seeds,
        steps,
        |seed, states| (seed, states.to_vec()),
    );
    assert_eq!(ensemble.len(), seeds.len());
    for (i, &seed) in seeds.iter().enumerate() {
        let mut solo =
            VecSimulator::<_, _, u8, 1>::new(protocol.clone(), topology, &init, master, [seed]);
        solo.run(steps);
        assert_eq!(
            ensemble[i],
            (seed, solo.lane_states_packed(0)),
            "seed {seed}"
        );
    }
}

#[test]
fn diversification_vec_lanes_match_packed_on_all_families() {
    family_battery(Protocol::Diversification, Candidate::VecLanes).assert_pass();
}

#[test]
fn voter_vec_lanes_match_packed_on_all_families() {
    family_battery(Protocol::Voter, Candidate::VecLanes).assert_pass();
}

#[test]
fn two_choices_vec_lanes_match_packed_on_all_families() {
    family_battery(Protocol::TwoChoices, Candidate::VecLanes).assert_pass();
}

#[test]
fn three_majority_vec_lanes_match_packed_on_all_families() {
    family_battery(Protocol::ThreeMajority, Candidate::VecLanes).assert_pass();
}

#[test]
fn anti_voter_vec_lanes_match_packed_on_all_families() {
    family_battery(Protocol::AntiVoter, Candidate::VecLanes).assert_pass();
}
