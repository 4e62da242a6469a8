//! The monomorphized packed-state fast path.
//!
//! [`Simulator`](crate::Simulator) is the generic reference engine: boxed
//! states, object-safe `&mut dyn Rng` transitions, and (as the experiment
//! harness uses it) `Box<dyn Topology>` dispatch on every partner draw. That
//! flexibility costs a virtual call or two per simulated interaction —
//! which is the entire budget at hundreds of millions of steps.
//!
//! This module removes every per-interaction indirection while keeping the
//! dynamics *bit-for-bit identical*:
//!
//! * [`PackedProtocol`] encodes an agent state into a `u32` (for
//!   Diversification: `colour << 1 | shade`), stored in one flat SoA
//!   `Vec<u32>` — half the memory traffic of the 8-byte `AgentState`;
//! * transitions are generic over `R: Rng`, so the whole step inlines into
//!   a straight-line loop with zero dynamic dispatch;
//! * partner draws go through
//!   [`Topology::sample_partner_mono`],
//!   the monomorphized twin of `sample_partner`.
//!
//! Because every RNG draw happens in the same order with the same spans as
//! in the generic engine, a [`PackedSimulator`] and a [`Simulator`](crate::Simulator) given
//! the same seed produce **exactly the same trajectory** — enforced by
//! equivalence tests in `pp-core`, `pp-baselines`, and `tests/`.

use crate::engine::{
    check_population, check_states_arity, fit_population, sequential_rng_state, tally_packed,
};
use crate::snapshot::{EngineSnapshot, SnapshotError};
use crate::{Engine, TurboWord};
use pp_graph::Topology;
use rand::rngs::{CounterRng, StdRng, GOLDEN};
use rand::{RngExt, SeedableRng};

/// Most observations any packed protocol may request per activation; keeps
/// the per-step observation buffer on the stack.
pub const MAX_PACKED_OBSERVATIONS: usize = 8;

/// A protocol with a compact `u32` state encoding and a monomorphized
/// transition rule.
///
/// Mirrors [`Protocol`](crate::Protocol) — same scheduling model, same
/// one-way semantics — but trades object safety for inlining: `transition`
/// is generic over the RNG, so `PackedSimulator` compiles to a
/// dispatch-free loop. Implementations must consume randomness **exactly**
/// like their generic counterpart (same draws, same order, same spans) so
/// shared-seed trajectories match the reference engine; the workspace
/// verifies this with equivalence tests for every packed protocol.
///
/// # Examples
///
/// ```
/// use pp_engine::{Engine, PackedProtocol, PackedSimulator};
/// use pp_graph::Cycle;
/// use rand::Rng;
///
/// /// Voter dynamics over `u8` colour labels.
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
/// let mut sim = PackedSimulator::new(PackedVoter, Cycle::new(8), &states, 7);
/// sim.run(1_000);
/// assert_eq!(sim.step_count(), 1_000);
/// ```
pub trait PackedProtocol: Send + Sync {
    /// The generic-engine state this packing corresponds to.
    type State: Clone + std::fmt::Debug;

    /// Number of partners observed per activation (compile-time constant so
    /// the engine's arity branch folds away). Must be in
    /// `1..=`[`MAX_PACKED_OBSERVATIONS`].
    const OBSERVATIONS: usize = 1;

    /// Encodes a state into its packed form.
    fn pack(&self, state: &Self::State) -> u32;

    /// Decodes a packed state. Must be the inverse of
    /// [`pack`](PackedProtocol::pack).
    fn unpack(&self, packed: u32) -> Self::State;

    /// Computes the scheduled agent's next packed state.
    ///
    /// `observed` has exactly [`OBSERVATIONS`](PackedProtocol::OBSERVATIONS)
    /// entries.
    fn transition<R: rand::Rng>(&self, me: u32, observed: &[u32], rng: &mut R) -> u32;

    /// The transition rule as the relaxed-equivalence turbo engine calls it.
    ///
    /// Must produce the same **distribution** over next states as
    /// [`transition`](PackedProtocol::transition) given uniform
    /// randomness, but — unlike `transition`, which must consume
    /// randomness draw-for-draw like the generic engine — it may spend its
    /// entropy however it likes. `aux` is a per-step entropy word whose
    /// **low 32 bits** are uniform and independent of the step's
    /// scheduling/partner indices (to the engine-documented `O(d/2³²)`);
    /// overrides use it to make probabilistic rules branch-free — compare
    /// against an integer threshold instead of conditionally drawing, at
    /// a bias of `O(2⁻³²)` that is far below the statistical harness's
    /// resolution. Protocols that need more entropy than one word can
    /// fall back to `rng`, an independent counter stream for this step.
    ///
    /// The default ignores `aux` and delegates to `transition`; override
    /// only as a measured optimisation. The `pp-stats` equivalence harness
    /// verifies the distributional claim for every override.
    #[inline]
    fn transition_turbo<R: rand::Rng>(
        &self,
        me: u32,
        observed: &[u32],
        aux: u64,
        rng: &mut R,
    ) -> u32 {
        let _ = aux;
        self.transition(me, observed, rng)
    }

    /// The transition rule as the lane-parallel ensemble engine calls it:
    /// `L` independent replicas transition at once, directly in the
    /// engine's storage width `W`.
    ///
    /// `me[l]` is lane `l`'s scheduled-agent word (updated in place),
    /// `observed[j][l]` its `j`-th observed word, and `aux[l]` its
    /// per-step entropy word — each lane's `aux` carries the same
    /// guarantees as [`transition_turbo`](Self::transition_turbo)'s, and
    /// lanes' words come from independent counter streams.
    ///
    /// The word type is the engine's [`TurboWord`] so an override's mask
    /// arithmetic runs at storage width — at `W = u8` all 32 lanes of a
    /// group fit one 32-byte vector register, where widening to `u32`
    /// first would spread them over four and put a scalar widen/narrow
    /// pass on the row load/store path.
    ///
    /// The default widens lane by lane and applies `transition_turbo`
    /// (with each lane's fallback stream parked one hash away, exactly
    /// like the turbo engine), so `L = 1` reproduces the turbo
    /// transition bit for bit for every protocol. Override only when the
    /// per-lane rule is branch-free mask arithmetic the compiler can
    /// keep in vector registers — the `pp-stats` equivalence harness
    /// verifies every override distributionally, per lane. An override's
    /// lane loops must carry no panic edge (see
    /// [`VecSimulator`](crate::VecSimulator)'s `run_batch`): state any
    /// length a lookup relies on once, before the loop.
    #[inline]
    fn transition_vec<W: TurboWord, const L: usize>(
        &self,
        me: &mut [W; L],
        observed: &[[W; L]],
        aux: &[u64; L],
    ) {
        let m = observed.len();
        debug_assert!(m <= MAX_PACKED_OBSERVATIONS);
        let mut lane_obs = [0u32; MAX_PACKED_OBSERVATIONS];
        for l in 0..L {
            for (slot, row) in lane_obs.iter_mut().zip(observed) {
                *slot = row[l].widen();
            }
            let mut rng = CounterRng::from_state(aux[l] ^ GOLDEN);
            me[l] =
                W::narrow(self.transition_turbo(me[l].widen(), &lane_obs[..m], aux[l], &mut rng));
        }
    }

    /// The exact outcome distribution of one activation, for the bounded
    /// model checker (`pp-check`): given the scheduled agent's packed word
    /// and its observed packed word(s), the full list of
    /// `(next packed word, probability)` pairs with probabilities summing
    /// to 1.
    ///
    /// This is the protocol's transition rule as *data* instead of as a
    /// sampling procedure — the explorer enumerates every reachable
    /// configuration and follows every outcome with positive probability,
    /// which a `transition` call (one sample per invocation) cannot
    /// provide. Implementations must describe exactly the distribution
    /// `transition` samples from; the checker cross-validates this by
    /// single-stepping every engine tier at explored configurations and
    /// asserting the result lands in the declared support.
    ///
    /// The default returns `None`, and the checker treats that as a
    /// **fail-closed** condition: a protocol without an exact rate table
    /// cannot be model-checked and is reported as unverifiable rather
    /// than silently skipped.
    fn outcomes(&self, me: u32, observed: &[u32]) -> Option<Vec<(u32, f64)>> {
        let _ = (me, observed);
        None
    }

    /// Short protocol name for experiment tables.
    fn name(&self) -> String;
}

/// The packed, fully monomorphized batch-stepping simulator.
///
/// Runs the same sequential uniform scheduler as
/// [`Simulator`](crate::Simulator) — schedule a uniform agent, draw
/// neighbour(s), transition — over a flat `Vec<u32>` state array, with the
/// protocol, topology, and RNG all statically dispatched. Given the same
/// `(protocol, topology, initial states, seed)` it reproduces the generic
/// engine's trajectory exactly.
#[derive(Debug)]
pub struct PackedSimulator<P: PackedProtocol, T: Topology> {
    protocol: P,
    topology: T,
    states: Vec<u32>,
    rng: StdRng,
    step: u64,
    seed: u64,
}

impl<P: PackedProtocol, T: Topology> PackedSimulator<P, T> {
    /// Creates a simulator at time-step 0, packing the given initial
    /// states.
    ///
    /// # Panics
    ///
    /// Panics if the number of initial states does not match the topology
    /// size, the population is smaller than 2, the topology exceeds
    /// `u32::MAX` nodes, or `P::OBSERVATIONS` is 0 or above
    /// [`MAX_PACKED_OBSERVATIONS`].
    pub fn new(protocol: P, topology: T, initial_states: &[P::State], seed: u64) -> Self {
        let packed = initial_states.iter().map(|s| protocol.pack(s)).collect();
        Self::from_packed(protocol, topology, packed, seed)
    }

    /// Creates a simulator from already-packed states.
    ///
    /// # Panics
    ///
    /// Same conditions as [`new`](Self::new).
    pub fn from_packed(protocol: P, topology: T, states: Vec<u32>, seed: u64) -> Self {
        check_population::<P>(states.len(), topology.len());
        PackedSimulator {
            protocol,
            topology,
            states,
            rng: StdRng::seed_from_u64(seed),
            step: 0,
            seed,
        }
    }

    /// Executes one time-step: schedule, observe, transition.
    #[inline]
    pub fn step(&mut self) {
        let n = self.states.len();
        // `random_index` draws the same Lemire stream as the reference
        // engine's `random_range(0..n)`, monomorphized.
        let u = self.rng.random_index(n);
        let next = match P::OBSERVATIONS {
            1 => {
                let v = self.topology.sample_partner_mono(u, &mut self.rng);
                self.protocol
                    .transition(self.states[u], &[self.states[v]], &mut self.rng)
            }
            2 => {
                let v = self.topology.sample_partner_mono(u, &mut self.rng);
                let w = self.topology.sample_partner_mono(u, &mut self.rng);
                self.protocol.transition(
                    self.states[u],
                    &[self.states[v], self.states[w]],
                    &mut self.rng,
                )
            }
            m => {
                let mut observed = [0u32; MAX_PACKED_OBSERVATIONS];
                for slot in observed.iter_mut().take(m) {
                    let v = self.topology.sample_partner_mono(u, &mut self.rng);
                    *slot = self.states[v];
                }
                self.protocol
                    .transition(self.states[u], &observed[..m], &mut self.rng)
            }
        };
        self.states[u] = next;
        self.step += 1;
    }

    /// The packed states, indexed by agent id.
    pub fn states_packed(&self) -> &[u32] {
        &self.states
    }

    /// The protocol under simulation.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// The interaction topology.
    pub fn topology(&self) -> &T {
        &self.topology
    }

    /// Consumes the simulator, returning the packed state vector.
    pub fn into_packed_states(self) -> Vec<u32> {
        self.states
    }

    /// Replaces the whole packed population, resizing the topology when
    /// the length changes.
    fn replace_packed(&mut self, states: Vec<u32>) {
        fit_population::<P, T>(&mut self.topology, states.len());
        self.states = states;
    }
}

impl<P, T> Engine for PackedSimulator<P, T>
where
    P: PackedProtocol,
    P::State: Send + Sync,
    T: Topology,
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
        pp_obs::obs_count!("packed.steps", steps);
        pp_obs::obs_count!("packed.batches", 1);
        for _ in 0..steps {
            self.step();
        }
    }

    fn class_counts(&self) -> Vec<u64> {
        tally_packed([self.states.as_slice()])
    }

    fn visit_states(&self, f: &mut dyn FnMut(usize, &Self::State)) {
        for (u, &p) in self.states.iter().enumerate() {
            f(u, &self.protocol.unpack(p));
        }
    }

    fn state(&self, u: usize) -> Self::State {
        self.protocol.unpack(self.states[u])
    }

    fn set_state(&mut self, u: usize, state: &Self::State) {
        self.states[u] = self.protocol.pack(state);
    }

    fn set_states(&mut self, states: &[Self::State]) {
        let packed = states.iter().map(|s| self.protocol.pack(s)).collect();
        self.replace_packed(packed);
    }

    fn push_agent(&mut self, state: &Self::State) {
        let mut packed = self.states.clone();
        packed.push(self.protocol.pack(state));
        self.replace_packed(packed);
    }

    fn swap_remove_agent(&mut self, u: usize) {
        let mut packed = self.states.clone();
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
            engine: "packed".into(),
            protocol: self.protocol.name(),
            topology: self.topology.name(),
            n: self.len() as u64,
            clock: self.step,
            seed: self.seed,
            states: self.states.clone(),
            aux: self.rng.state().to_vec(),
        }
    }

    fn restore_snapshot(&mut self, snapshot: &EngineSnapshot) -> Result<(), SnapshotError> {
        snapshot.check_identity(
            "packed",
            &self.protocol.name(),
            &self.topology.name(),
            self.len() as u64,
        )?;
        let rng_state = sequential_rng_state(snapshot)?;
        check_states_arity(snapshot, snapshot.n)?;
        self.replace_packed(snapshot.states.clone());
        self.step = snapshot.clock;
        self.seed = snapshot.seed;
        self.rng = StdRng::from_state(rng_state);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, Protocol, Simulator};
    use pp_graph::{Complete, Cycle, Torus2d};
    use rand::Rng;

    /// Voter dynamics over raw u32 labels, in both engines' vocabularies.
    #[derive(Debug, Clone)]
    struct Copy1;

    impl Protocol for Copy1 {
        type State = u32;

        fn transition(&self, _me: &u32, observed: &[&u32], _rng: &mut dyn Rng) -> u32 {
            *observed[0]
        }

        fn name(&self) -> String {
            "copy".into()
        }
    }

    impl PackedProtocol for Copy1 {
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
            "copy".into()
        }
    }

    /// Two-sample protocol exercising the m = 2 arm.
    #[derive(Debug, Clone)]
    struct MaxOfTwo;

    impl Protocol for MaxOfTwo {
        type State = u32;

        fn observations(&self) -> usize {
            2
        }

        fn transition(&self, me: &u32, observed: &[&u32], _rng: &mut dyn Rng) -> u32 {
            (*me).max(*observed[0]).max(*observed[1])
        }

        fn name(&self) -> String {
            "max2".into()
        }
    }

    impl PackedProtocol for MaxOfTwo {
        type State = u32;

        const OBSERVATIONS: usize = 2;

        fn pack(&self, s: &u32) -> u32 {
            *s
        }

        fn unpack(&self, p: u32) -> u32 {
            p
        }

        fn transition<R: rand::Rng>(&self, me: u32, observed: &[u32], _rng: &mut R) -> u32 {
            me.max(observed[0]).max(observed[1])
        }

        fn name(&self) -> String {
            "max2".into()
        }
    }

    #[test]
    fn matches_generic_engine_exactly_m1() {
        let init: Vec<u32> = (0..64).collect();
        for seed in 0..8 {
            let mut fast = PackedSimulator::new(Copy1, Cycle::new(64), &init, seed);
            let mut reference = Simulator::new(Copy1, Cycle::new(64), init.clone(), seed);
            fast.run(5_000);
            reference.run(5_000);
            assert_eq!(
                fast.snapshot(),
                reference.population().states(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn matches_generic_engine_exactly_m2() {
        let init: Vec<u32> = (0..48).collect();
        for seed in [1u64, 9, 33] {
            let mut fast = PackedSimulator::new(MaxOfTwo, Torus2d::new(6, 8), &init, seed);
            let mut reference = Simulator::new(MaxOfTwo, Torus2d::new(6, 8), init.clone(), seed);
            fast.run(3_000);
            reference.run(3_000);
            assert_eq!(
                fast.snapshot(),
                reference.population().states(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn run_until_and_observed_mirror_reference() {
        let init: Vec<u32> = (0..16).collect();
        let mut sim = PackedSimulator::new(Copy1, Complete::new(16), &init, 3);
        let hit = sim.run_until(200_000, 16, &mut |counts, _| counts.contains(&16));
        assert!(hit.is_some(), "voter consensus not reached");

        let mut sim = PackedSimulator::new(Copy1, Complete::new(16), &init, 3);
        let mut seen = Vec::new();
        sim.run_observed(10, 4, &mut |t, _| seen.push(t));
        assert_eq!(seen, vec![0, 4, 8, 10]);
    }

    #[test]
    fn accessors_and_mutation() {
        let init: Vec<u32> = vec![5, 6, 7];
        let mut sim = PackedSimulator::new(Copy1, Cycle::new(3), &init, 1);
        assert_eq!(sim.len(), 3);
        assert!(!sim.is_empty());
        assert_eq!(sim.seed(), 1);
        assert_eq!(sim.state(2), 7);
        sim.set_state(2, &9);
        assert_eq!(sim.states_packed()[2], 9);
        assert_eq!(sim.snapshot(), vec![5, 6, 9]);
        assert_eq!(PackedProtocol::name(sim.protocol()), "copy");
        assert_eq!(sim.topology().len(), 3);
        assert_eq!(sim.into_packed_states(), vec![5, 6, 9]);
    }

    #[test]
    #[should_panic(expected = "population size")]
    fn rejects_size_mismatch() {
        PackedSimulator::new(Copy1, Cycle::new(4), &[1u32, 2, 3], 0);
    }
}
