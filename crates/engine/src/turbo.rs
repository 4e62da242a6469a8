//! The counter-based relaxed-equivalence turbo engine.
//!
//! [`PackedSimulator`](crate::PackedSimulator) already removes every
//! per-interaction indirection, but its promise of **bit-exact** trajectory
//! equivalence with the generic engine pins it to one sequential xoshiro
//! stream: draw `t + 1` cannot begin before draw `t` retires, so the RNG's
//! serial latency — not arithmetic throughput — caps the step rate
//! (ROADMAP "Per-step latency ceiling").
//!
//! [`TurboSimulator`] trades draw-for-draw identity for **statistical
//! equivalence**, the way counter-based RNGs are used in large-scale
//! parallel simulation. Each time-step `t` owns fixed positions of a
//! SplitMix64 Weyl walk (`splitmix64(base + position · GOLDEN)`), so any
//! batch of future steps' scheduling and partner draws is dependency-free
//! straight-line arithmetic the CPU pipelines across steps while earlier
//! steps' state loads are still in flight. The
//! relaxation also removes the costs the exact engines cannot avoid on
//! their serial stream — Lemire rejection becomes multiply-shift sampling
//! (bias `O(n/2⁶⁴)`, forever below statistical resolution), partner
//! draws become branch-free bit-field selections
//! ([`Topology::sample_partner_turbo`]), and probabilistic transitions
//! compare a per-step entropy word against an integer threshold instead
//! of conditionally drawing. Per-step randomness stays uniform (to the
//! stated biases) and independent across steps, so the simulated process
//! is the *same Markov chain* as the exact engines' — verified
//! distributionally by the `pp-stats` equivalence harness rather than by
//! trajectory comparison.
//!
//! The state array is generic over [`TurboWord`]: `u32` matches the packed
//! engine, while `u8` quarters the footprint for protocols whose packed
//! words fit a byte (Diversification with `k ≤ 127` colours), keeping
//! `n = 10⁶` populations cache-resident.
//!
//! How the engines relate:
//!
//! | tier | engines | guarantee | verified by |
//! |------|---------|-----------|-------------|
//! | bit-exact | `Simulator` ↔ `PackedSimulator` | identical trajectory per seed | shared-seed equality tests |
//! | bit-exact | `TurboSimulator` ↔ one-lane `VecSimulator` | identical trajectory per seed | `one_lane_is_bit_exact_vs_turbo` |
//! | statistical | `PackedSimulator` ↔ `TurboSimulator`, `ShardedSimulator`, `VecSimulator` (per lane), `DenseSimulator` | identical process distribution | `pp_stats::equivalence` harness |
//!
//! The step loop itself lives in the crate's counter-RNG kernel, which
//! the sharded tier runs too: turbo is its whole-population instance,
//! over one stream positioned at `walk_base(seed) + step·(1 + m)·GOLDEN`.

use crate::engine::{
    check_population, check_states_arity, check_states_width, fit_population, tally_packed,
};
use crate::kernel::{run_steps, walk_base, Owner, TurboWord};
use crate::snapshot::{EngineSnapshot, SnapshotError};
use crate::{Engine, PackedProtocol};
use pp_graph::Topology;
use rand::rngs::{CounterRng, GOLDEN};

/// The counter-based batch-stepping simulator.
///
/// Same scheduling model as [`PackedSimulator`](crate::PackedSimulator) —
/// per time-step, a uniform agent observes uniform neighbour(s) and
/// transitions — but the randomness of step `t` comes from fixed,
/// independently computable positions of a seeded SplitMix64 Weyl walk
/// instead of one sequential generator, so the per-step index arithmetic
/// of many future steps pipelines with no loop-carried RNG dependency
/// while the state array catches up. Trajectories therefore differ
/// from the exact engines under a shared seed, while the process
/// distribution is identical; the `pp-stats` statistical-equivalence
/// harness is the contract test. Driven through [`Engine`].
///
/// # Examples
///
/// ```
/// use pp_engine::{Engine, PackedProtocol, TurboSimulator};
/// use pp_graph::Cycle;
/// use rand::Rng;
///
/// #[derive(Debug)]
/// struct PackedVoter;
///
/// impl PackedProtocol for PackedVoter {
///     type State = u8;
///     fn pack(&self, s: &u8) -> u32 {
///         *s as u32
///     }
///     fn unpack(&self, p: u32) -> u8 {
///         p as u8
///     }
///     fn transition<R: Rng>(&self, _me: u32, observed: &[u32], _rng: &mut R) -> u32 {
///         observed[0]
///     }
///     fn name(&self) -> String {
///         "packed-voter".into()
///     }
/// }
///
/// let states: Vec<u8> = (0..8).collect();
/// // u8 storage: every packed voter state fits a byte.
/// let mut sim = TurboSimulator::<_, _, u8>::new(PackedVoter, Cycle::new(8), &states, 7);
/// sim.run(10_000);
/// assert_eq!(sim.step_count(), 10_000);
/// ```
#[derive(Debug)]
pub struct TurboSimulator<P: PackedProtocol, T: Topology, W: TurboWord = u32> {
    protocol: P,
    topology: T,
    states: Vec<W>,
    step: u64,
    seed: u64,
}

impl<P: PackedProtocol, T: Topology, W: TurboWord> TurboSimulator<P, T, W> {
    /// Creates a simulator at time-step 0, packing the given initial
    /// states.
    ///
    /// # Panics
    ///
    /// Panics if the number of initial states does not match the topology
    /// size, the population is smaller than 2, `P::OBSERVATIONS` is 0 or
    /// above [`MAX_PACKED_OBSERVATIONS`](crate::MAX_PACKED_OBSERVATIONS),
    /// the topology exceeds `u32::MAX` nodes, or any packed initial state
    /// overflows the storage word `W`.
    pub fn new(protocol: P, topology: T, initial_states: &[P::State], seed: u64) -> Self {
        let packed = initial_states.iter().map(|s| protocol.pack(s)).collect();
        Self::from_packed(protocol, topology, packed, seed)
    }

    /// Creates a simulator from already-packed (`u32`) states, narrowing
    /// them into `W` storage.
    ///
    /// # Panics
    ///
    /// Same conditions as [`new`](Self::new).
    pub fn from_packed(protocol: P, topology: T, states: Vec<u32>, seed: u64) -> Self {
        check_population::<P>(states.len(), topology.len());
        TurboSimulator {
            protocol,
            topology,
            states: states.into_iter().map(W::narrow).collect(),
            step: 0,
            seed,
        }
    }

    /// The stored state words, indexed by agent id.
    pub fn states_words(&self) -> &[W] {
        &self.states
    }

    /// The population widened back to packed `u32` form.
    pub fn states_packed(&self) -> Vec<u32> {
        self.states.iter().map(|w| w.widen()).collect()
    }

    /// The protocol under simulation.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// The interaction topology.
    pub fn topology(&self) -> &T {
        &self.topology
    }

    /// Replaces the whole packed population, resizing the topology when
    /// the length changes.
    fn replace_packed(&mut self, states: Vec<u32>) {
        fit_population::<P, T>(&mut self.topology, states.len());
        self.states = states.into_iter().map(W::narrow).collect();
    }
}

impl<P, T, W> Engine for TurboSimulator<P, T, W>
where
    P: PackedProtocol,
    P::State: Send + Sync,
    T: Topology,
    W: TurboWord,
{
    type State = P::State;

    fn len(&self) -> usize {
        self.states.len()
    }

    fn step_count(&self) -> u64 {
        self.step
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn run(&mut self, steps: u64) {
        // Recorded per batch, not per step: one branch per `run` call.
        pp_obs::obs_count!("turbo.steps", steps);
        pp_obs::obs_count!("turbo.batches", 1);
        // Step `t` owns the walk positions `base + (t·(1 + m) + j)·GOLDEN`
        // for j in 1..=1 + m: one schedule word, then one per partner.
        let words = 1 + P::OBSERVATIONS as u64;
        let stream = CounterRng::from_state(
            walk_base(self.seed).wrapping_add(self.step.wrapping_mul(words.wrapping_mul(GOLDEN))),
        );
        run_steps::<P, T, W, false, true, false>(
            &self.protocol,
            &self.topology,
            Owner::default(),
            &mut self.states,
            &mut Vec::new(),
            stream,
            0..steps,
        );
        self.step += steps;
    }

    fn class_counts(&self) -> Vec<u64> {
        tally_packed([self.states.as_slice()])
    }

    fn visit_states(&self, f: &mut dyn FnMut(usize, &Self::State)) {
        for (u, w) in self.states.iter().enumerate() {
            f(u, &self.protocol.unpack(w.widen()));
        }
    }

    fn state(&self, u: usize) -> Self::State {
        self.protocol.unpack(self.states[u].widen())
    }

    fn set_state(&mut self, u: usize, state: &Self::State) {
        self.states[u] = W::narrow(self.protocol.pack(state));
    }

    fn set_states(&mut self, states: &[Self::State]) {
        let packed = states.iter().map(|s| self.protocol.pack(s)).collect();
        self.replace_packed(packed);
    }

    fn push_agent(&mut self, state: &Self::State) {
        let mut packed = self.states_packed();
        packed.push(self.protocol.pack(state));
        self.replace_packed(packed);
    }

    fn swap_remove_agent(&mut self, u: usize) {
        let mut packed = self.states_packed();
        assert!(packed.len() > 2, "removal would leave fewer than 2 agents");
        packed.swap_remove(u);
        self.replace_packed(packed);
    }

    fn topology_name(&self) -> String {
        self.topology.name()
    }

    fn supports_resize(&self) -> bool {
        self.topology.resized(self.len()).is_some()
    }

    fn save_snapshot(&mut self) -> EngineSnapshot {
        EngineSnapshot {
            engine: "turbo".into(),
            protocol: self.protocol.name(),
            topology: self.topology.name(),
            n: self.len() as u64,
            clock: self.step,
            seed: self.seed,
            states: self.states_packed(),
            // The whole stream is keyed by (seed, step): no private words.
            aux: Vec::new(),
        }
    }

    fn restore_snapshot(&mut self, snapshot: &EngineSnapshot) -> Result<(), SnapshotError> {
        snapshot.check_identity(
            "turbo",
            &self.protocol.name(),
            &self.topology.name(),
            self.len() as u64,
        )?;
        if !snapshot.aux.is_empty() {
            return Err(SnapshotError::BadPayload(format!(
                "turbo tier carries no aux words, got {}",
                snapshot.aux.len()
            )));
        }
        check_states_arity(snapshot, snapshot.n)?;
        check_states_width::<W>(snapshot)?;
        self.replace_packed(snapshot.states.clone());
        self.step = snapshot.clock;
        self.seed = snapshot.seed;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use pp_graph::{Complete, Cycle, Torus2d};
    use rand::Rng;

    /// Voter dynamics over raw u32 labels.
    #[derive(Debug, Clone)]
    struct Copy1;

    impl PackedProtocol for Copy1 {
        type State = u32;

        fn pack(&self, s: &u32) -> u32 {
            *s
        }

        fn unpack(&self, p: u32) -> u32 {
            p
        }

        fn transition<R: Rng>(&self, _me: u32, observed: &[u32], _rng: &mut R) -> u32 {
            observed[0]
        }

        fn name(&self) -> String {
            "copy".into()
        }
    }

    /// Two-sample protocol exercising the m = 2 arm.
    #[derive(Debug, Clone)]
    struct MaxOfTwo;

    impl PackedProtocol for MaxOfTwo {
        type State = u32;

        const OBSERVATIONS: usize = 2;

        fn pack(&self, s: &u32) -> u32 {
            *s
        }

        fn unpack(&self, p: u32) -> u32 {
            p
        }

        fn transition<R: Rng>(&self, me: u32, observed: &[u32], _rng: &mut R) -> u32 {
            me.max(observed[0]).max(observed[1])
        }

        fn name(&self) -> String {
            "max2".into()
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let init: Vec<u32> = (0..64).collect();
        let mut a = TurboSimulator::<_, _, u32>::new(Copy1, Cycle::new(64), &init, 9);
        let mut b = TurboSimulator::<_, _, u32>::new(Copy1, Cycle::new(64), &init, 9);
        a.run(10_000);
        b.run(3_000);
        b.run(7_000); // different batch split, same step keys
        assert_eq!(a.states_packed(), b.states_packed());
        let mut c = TurboSimulator::<_, _, u32>::new(Copy1, Cycle::new(64), &init, 10);
        c.run(10_000);
        assert_ne!(a.states_packed(), c.states_packed());
    }

    #[test]
    fn u8_storage_matches_u32_storage_exactly() {
        // Same seed ⇒ same counter streams ⇒ identical trajectories; the
        // word width is storage only.
        let init: Vec<u32> = (0..64).map(|u| u % 200).collect();
        let mut wide = TurboSimulator::<_, _, u32>::new(Copy1, Torus2d::new(8, 8), &init, 4);
        let mut narrow = TurboSimulator::<_, _, u8>::new(Copy1, Torus2d::new(8, 8), &init, 4);
        for _ in 0..5 {
            wide.run(3_000);
            narrow.run(3_000);
            assert_eq!(wide.states_packed(), narrow.states_packed());
        }
    }

    #[test]
    fn voter_on_complete_reaches_consensus() {
        let init: Vec<u32> = (0..32).collect();
        let mut sim = TurboSimulator::<_, _, u32>::new(Copy1, Complete::new(32), &init, 5);
        let hit = sim.run_until(2_000_000, 64, &mut |counts, _| counts.contains(&32));
        assert!(hit.is_some(), "voter consensus not reached");
    }

    #[test]
    fn max_of_two_floods_maximum() {
        let init: Vec<u32> = (0..48).collect();
        let mut sim = TurboSimulator::<_, _, u32>::new(MaxOfTwo, Torus2d::new(6, 8), &init, 2);
        let hit = sim.run_until(1_000_000, 48, &mut |counts, _| counts.get(47) == Some(&48));
        assert!(hit.is_some(), "maximum did not flood the torus");
    }

    #[test]
    fn observer_and_accessors() {
        let init: Vec<u32> = vec![5, 6, 7];
        let mut sim = TurboSimulator::<_, _, u32>::new(Copy1, Cycle::new(3), &init, 1);
        assert_eq!(sim.len(), 3);
        assert!(!sim.is_empty());
        assert_eq!(sim.seed(), 1);
        assert_eq!(sim.state(2), 7);
        sim.set_state(2, &9);
        assert_eq!(sim.states_words()[2], 9u32);
        assert_eq!(sim.states_packed(), vec![5, 6, 9]);
        assert_eq!(sim.snapshot(), vec![5, 6, 9]);
        assert_eq!(PackedProtocol::name(sim.protocol()), "copy");
        assert_eq!(sim.topology().len(), 3);
        let mut seen = Vec::new();
        sim.run_observed(10, 4, &mut |t, _| seen.push(t));
        assert_eq!(seen, vec![0, 4, 8, 10]);
        assert_eq!(sim.step_count(), 10);
    }

    #[test]
    fn split_runs_agree_with_step_count() {
        let init: Vec<u32> = (0..16).collect();
        let mut sim = TurboSimulator::<_, _, u32>::new(Copy1, Cycle::new(16), &init, 3);
        sim.run(3 * 1024 + 17);
        assert_eq!(sim.step_count(), 3 * 1024 + 17);
    }

    #[test]
    #[should_panic(expected = "population size")]
    fn rejects_size_mismatch() {
        TurboSimulator::<_, _, u32>::new(Copy1, Cycle::new(4), &[1u32, 2, 3], 0);
    }

    #[test]
    #[should_panic(expected = "overflows u8")]
    fn u8_storage_rejects_wide_states() {
        TurboSimulator::<_, _, u8>::new(Copy1, Cycle::new(3), &[1u32, 300, 2], 0);
    }
}
