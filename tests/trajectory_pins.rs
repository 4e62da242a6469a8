//! Trajectory pins: hard-coded hashes of final packed states, recorded
//! once and asserted on every run, so a refactor of the counter-RNG step
//! kernel cannot silently change what the turbo, sharded and vec tiers
//! simulate.
//!
//! The statistical batteries only check that a tier simulates the right
//! *process*, and the split-run tests compare two runs of the same build;
//! neither notices a change that re-orders how randomness is consumed.
//! These pins do: each case runs a fixed `(tier, protocol, topology,
//! storage, layout, seed, run slicing)` and compares an FNV-1a hash of the
//! final packed words (every lane, for vec) and the step count against
//! the recorded value.
//!
//! **Platform note.** The multi-shard sharded pins go through the
//! count-split, which draws per-shard step counts from an f64 binomial
//! sampler (`ln`/`exp` from the platform libm). Those pins therefore
//! depend on libm; they were recorded on x86-64 Linux. The turbo, vec and
//! one-shard sharded pins use integer arithmetic only.
//!
//! A pin that fails after an intended trajectory change must be
//! re-recorded on purpose, with the reason stated in the commit.

use pp_baselines::TwoChoices;
use pp_core::{AgentState, Colour, Diversification, Weights};
use pp_engine::{Engine, ReadMode, ShardedSimulator, TurboSimulator, TurboWord, VecSimulator};
use pp_graph::{Complete, Cycle, Torus2d};

const N: usize = 1024;
const STEPS: u64 = 200_000;

/// FNV-1a over the little-endian bytes of the packed words.
fn fnv1a(words: impl IntoIterator<Item = u32>) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

fn weights() -> Weights {
    Weights::new(vec![1.0, 1.0, 2.0, 4.0]).unwrap()
}

fn diversification() -> Diversification {
    Diversification::new(weights())
}

/// Runs of 8 agents per colour: on the cycle an `u % 4` layout would
/// give every agent two differently coloured neighbours, which freezes
/// an all-dark Diversification population.
fn colour_of(u: usize) -> Colour {
    Colour::new((u / 8) % weights().len())
}

fn div_init() -> Vec<AgentState> {
    (0..N).map(|u| AgentState::dark(colour_of(u))).collect()
}

fn colours() -> Vec<Colour> {
    (0..N).map(colour_of).collect()
}

/// Runs `e` in the given bursts.
fn run_bursts<E: Engine + ?Sized>(e: &mut E, bursts: &[u64]) {
    for &b in bursts {
        e.run(b);
    }
}

/// Collects every mismatch so one failing run reports all moved pins.
#[derive(Default)]
struct Pins(Vec<String>);

impl Pins {
    fn check(
        &mut self,
        name: &str,
        words: impl IntoIterator<Item = u32>,
        step: u64,
        want: (u64, u64),
    ) {
        let words: Vec<u32> = words.into_iter().collect();
        // A pin taken after absorption (consensus) would not notice a
        // changed trajectory that reaches the same absorbing state.
        assert!(
            words.iter().any(|&w| w != words[0]),
            "{name}: population absorbed; pin a shorter run"
        );
        let got = (fnv1a(words), step);
        if got != want {
            self.0.push(format!(
                "{name}: got ({:#018x}, {}), pinned ({:#018x}, {})",
                got.0, got.1, want.0, want.1
            ));
        }
    }

    fn finish(self) {
        assert!(
            self.0.is_empty(),
            "trajectory pins moved:\n{}",
            self.0.join("\n")
        );
    }
}

fn turbo<P, T, W>(
    protocol: P,
    topology: T,
    init: &[P::State],
    seed: u64,
    bursts: &[u64],
) -> (Vec<u32>, u64)
where
    P: pp_engine::PackedProtocol,
    P::State: Send + Sync,
    T: pp_graph::Topology,
    W: TurboWord,
{
    let mut sim = TurboSimulator::<P, T, W>::new(protocol, topology, init, seed);
    run_bursts(&mut sim, bursts);
    (sim.states_packed(), sim.step_count())
}

#[test]
fn turbo_trajectories_are_pinned() {
    let mut pins = Pins::default();
    let (w, t) = turbo::<_, _, u8>(
        diversification(),
        Torus2d::new(32, 32),
        &div_init(),
        11,
        &[STEPS],
    );
    pins.check(
        "turbo u8 torus diversification",
        w,
        t,
        (0x70a1_5f8c_29bc_d365, STEPS),
    );
    let (w, t) = turbo::<_, _, u8>(TwoChoices, Torus2d::new(32, 32), &colours(), 12, &[STEPS]);
    pins.check(
        "turbo u8 torus 2-choices",
        w,
        t,
        (0x2785_38a0_9b7c_0867, STEPS),
    );
    let (w, t) = turbo::<_, _, u32>(diversification(), Cycle::new(N), &div_init(), 13, &[STEPS]);
    pins.check(
        "turbo u32 cycle diversification",
        w,
        t,
        (0x8b44_8074_d81b_f076, STEPS),
    );
    let (w, t) = turbo::<_, _, u32>(TwoChoices, Cycle::new(N), &colours(), 14, &[STEPS]);
    pins.check(
        "turbo u32 cycle 2-choices",
        w,
        t,
        (0xf7f6_6c16_a72f_6926, STEPS),
    );
    // Slicing is not part of the key: the split run lands on the same pin.
    let (w, t) = turbo::<_, _, u32>(
        TwoChoices,
        Cycle::new(N),
        &colours(),
        14,
        &[777, STEPS - 777],
    );
    pins.check(
        "turbo u32 cycle 2-choices, split",
        w,
        t,
        (0xf7f6_6c16_a72f_6926, STEPS),
    );
    pins.finish();
}

fn sharded<P, T>(
    protocol: P,
    topology: T,
    init: &[P::State],
    seed: u64,
    layout: (usize, u64),
    mode: ReadMode,
    bursts: &[u64],
) -> (Vec<u32>, u64)
where
    P: pp_engine::PackedProtocol + 'static,
    P::State: Send + Sync,
    T: pp_graph::Topology + 'static,
{
    let mut sim = ShardedSimulator::<P, T, u8>::new(protocol, topology, init, seed)
        .with_layout(layout.0, layout.1)
        .with_read_mode(mode);
    run_bursts(&mut sim, bursts);
    (sim.states_packed(), sim.step_count())
}

#[test]
fn sharded_trajectories_are_pinned() {
    let mut pins = Pins::default();
    let (w, t) = sharded(
        diversification(),
        Torus2d::new(32, 32),
        &div_init(),
        21,
        (1, 256),
        ReadMode::Defer,
        &[STEPS],
    );
    pins.check(
        "sharded 1 shard torus diversification",
        w,
        t,
        (0xd0fc_682f_4a72_bc51, STEPS),
    );
    let (w, t) = sharded(
        diversification(),
        Cycle::new(N),
        &div_init(),
        22,
        (4, 256),
        ReadMode::Defer,
        &[STEPS],
    );
    pins.check(
        "sharded 4 contiguous defer cycle diversification",
        w,
        t,
        (0xbacf_df94_be25_7bb6, STEPS),
    );
    let (w, t) = sharded(
        TwoChoices,
        Cycle::new(N),
        &colours(),
        23,
        (4, 256),
        ReadMode::Defer,
        &[STEPS],
    );
    pins.check(
        "sharded 4 contiguous defer cycle 2-choices",
        w,
        t,
        (0x4ea8_062c_3983_8f27, STEPS),
    );
    let (w, t) = sharded(
        diversification(),
        Complete::new(N),
        &div_init(),
        24,
        (4, 256),
        ReadMode::Snapshot,
        &[STEPS],
    );
    pins.check(
        "sharded 4 strided snapshot complete diversification",
        w,
        t,
        (0x619d_296e_fcdb_c4e4, STEPS),
    );
    // 1000 = 3·256 + 232: the first call pauses partway through a block
    // (pending queue and block snapshot carried over).
    let (w, t) = sharded(
        diversification(),
        Complete::new(N),
        &div_init(),
        24,
        (4, 256),
        ReadMode::Snapshot,
        &[1000, STEPS - 1000],
    );
    pins.check(
        "sharded 4 strided snapshot complete diversification, split",
        w,
        t,
        (0x619d_296e_fcdb_c4e4, STEPS),
    );
    let (w, t) = sharded(
        TwoChoices,
        Cycle::new(N),
        &colours(),
        23,
        (4, 256),
        ReadMode::Defer,
        &[1000, STEPS - 1000],
    );
    pins.check(
        "sharded 4 contiguous defer cycle 2-choices, split",
        w,
        t,
        (0x4ea8_062c_3983_8f27, STEPS),
    );
    pins.finish();
}

#[test]
fn vec_trajectories_are_pinned() {
    let mut pins = Pins::default();
    let mut one = VecSimulator::<_, _, u8, 1>::from_seed(
        diversification(),
        Torus2d::new(32, 32),
        &div_init(),
        31,
    );
    one.run(STEPS);
    pins.check(
        "vec L=1 torus diversification",
        one.states_words().iter().map(|w| w.widen()),
        one.step_count(),
        (0xa232_c5a3_c809_81d3, STEPS),
    );
    let mut eight =
        VecSimulator::<_, _, u8, 8>::from_seed(TwoChoices, Cycle::new(N), &colours(), 32);
    eight.run(STEPS);
    pins.check(
        "vec L=8 cycle 2-choices",
        eight.states_words().iter().map(|w| w.widen()),
        eight.step_count(),
        (0xb827_cbf7_bbe7_4005, STEPS),
    );
    pins.finish();
}
