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
//! Two equivalence tiers now exist side by side:
//!
//! | tier | engines | guarantee | verified by |
//! |------|---------|-----------|-------------|
//! | bit-exact | `Simulator` ↔ `PackedSimulator` | identical trajectory per seed | shared-seed equality tests |
//! | statistical | `PackedSimulator` ↔ `TurboSimulator`, `DenseSimulator` | identical process distribution | `pp_stats::equivalence` harness |

use crate::packed::MAX_PACKED_OBSERVATIONS;
use crate::{PackedProtocol, Population};
use pp_graph::Topology;
use rand::rngs::{splitmix64, CounterRng, GOLDEN};

/// A state word the turbo engine can store its SoA array in.
///
/// [`PackedProtocol`] speaks `u32`; a `TurboWord` is the narrower storage
/// type the engine converts through on load/store. `u8` quarters the
/// state-array footprint when every reachable packed word fits a byte —
/// for Diversification's `colour << 1 | shade` encoding that is `k ≤ 127`
/// colours (see [`fits_in`](TurboWord::fits_in)).
///
/// The bitwise supertraits and mask helpers exist for
/// [`PackedProtocol::transition_vec`]
/// overrides, which run their mask arithmetic directly in the storage
/// width: at `W = u8` that packs 32 replica lanes into one 32-byte
/// vector register instead of four, and the engine's load/store loops
/// move rows verbatim with no widen/narrow pass.
pub trait TurboWord:
    Copy
    + Send
    + Sync
    + std::fmt::Debug
    + PartialEq
    + std::ops::BitAnd<Output = Self>
    + std::ops::BitOr<Output = Self>
    + std::ops::BitXor<Output = Self>
    + std::ops::Not<Output = Self>
    + 'static
{
    /// Largest packed value this word can hold.
    const CAPACITY: u32;

    /// The all-zeros word.
    const ZERO: Self;

    /// The word holding packed value 1 (the shade/parity bit).
    const ONE: Self;

    /// Narrows a packed word for storage.
    ///
    /// # Panics
    ///
    /// Panics if `p` exceeds [`CAPACITY`](TurboWord::CAPACITY) — a protocol
    /// whose transition emits states outside the declared alphabet must not
    /// silently truncate them.
    fn narrow(p: u32) -> Self;

    /// Widens a stored word back to the packed form.
    fn widen(self) -> u32;

    /// Two's-complement negation: turns a 0/1 word into an all-zeros /
    /// all-ones select mask for branch-free transition arithmetic.
    fn wrapping_neg(self) -> Self;

    /// `1` if `b` else `0`, as a storage word.
    fn from_bool(b: bool) -> Self;

    /// Whether every packed word in `0..=max_packed` is storable.
    fn fits_in(max_packed: u32) -> bool {
        max_packed <= Self::CAPACITY
    }
}

impl TurboWord for u32 {
    const CAPACITY: u32 = u32::MAX;
    const ZERO: Self = 0;
    const ONE: Self = 1;

    #[inline(always)]
    fn narrow(p: u32) -> Self {
        p
    }

    #[inline(always)]
    fn widen(self) -> u32 {
        self
    }

    #[inline(always)]
    fn wrapping_neg(self) -> Self {
        u32::wrapping_neg(self)
    }

    #[inline(always)]
    fn from_bool(b: bool) -> Self {
        u32::from(b)
    }
}

impl TurboWord for u8 {
    const CAPACITY: u32 = u8::MAX as u32;
    const ZERO: Self = 0;
    const ONE: Self = 1;

    #[inline(always)]
    fn narrow(p: u32) -> Self {
        // Release builds must not silently truncate either: the check is
        // one perfectly-predicted compare against an immediate.
        assert!(p <= Self::CAPACITY, "packed word {p} overflows u8 storage");
        p as u8
    }

    #[inline(always)]
    fn widen(self) -> u32 {
        self as u32
    }

    #[inline(always)]
    fn wrapping_neg(self) -> Self {
        u8::wrapping_neg(self)
    }

    #[inline(always)]
    fn from_bool(b: bool) -> Self {
        u8::from(b)
    }
}

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
/// harness is the contract test.
///
/// # Examples
///
/// ```
/// use pp_engine::{PackedProtocol, TurboSimulator};
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
    /// Start of this simulator's Weyl walk (derived from the seed); step
    /// `t` owns the positions `base + (t·words + j)·GOLDEN`.
    weyl_base: u64,
}

impl<P: PackedProtocol, T: Topology, W: TurboWord> TurboSimulator<P, T, W> {
    /// Creates a simulator at time-step 0, packing the given initial
    /// states.
    ///
    /// # Panics
    ///
    /// Panics if the number of initial states does not match the topology
    /// size, the population is smaller than 2, `P::OBSERVATIONS` is 0 or
    /// above [`MAX_PACKED_OBSERVATIONS`], the topology exceeds `u32::MAX`
    /// nodes, or any packed initial state overflows the storage word `W`.
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
        assert_eq!(
            states.len(),
            topology.len(),
            "population size {} != topology size {}",
            states.len(),
            topology.len()
        );
        assert!(states.len() >= 2, "population needs at least 2 agents");
        assert!(
            u32::try_from(states.len()).is_ok(),
            "turbo batch buffers store node ids as u32; {} agents is too many",
            states.len()
        );
        assert!(
            (1..=MAX_PACKED_OBSERVATIONS).contains(&P::OBSERVATIONS),
            "packed protocol must observe 1..={MAX_PACKED_OBSERVATIONS} agents, got {}",
            P::OBSERVATIONS
        );
        TurboSimulator {
            protocol,
            topology,
            states: states.into_iter().map(W::narrow).collect(),
            step: 0,
            seed,
            // Hashed, so related seeds start unrelated walks.
            weyl_base: splitmix64(seed ^ 0xA076_1D64_78BD_642F),
        }
    }

    /// Uniform random words this engine derives per time-step: one for
    /// scheduling plus one per observation. The transition's `aux`
    /// entropy rides in the low 32 bits of the last partner word —
    /// partner draws consume a word's *high* bits (1–2 bits for the
    /// structured families, the top `log₂ d` for degree-`d` neighbour
    /// selection), so the fields are disjoint for the structured
    /// topologies and correlated only at `O(d/2³²)` for the rest, far
    /// below the equivalence harness's resolution.
    const WORDS_PER_STEP: u64 = 1 + P::OBSERVATIONS as u64;

    /// Runs one batch of `len` time-steps as a single fused loop.
    ///
    /// Each step's randomness is `splitmix64` evaluated at fixed positions
    /// of the simulator's Weyl walk, so there is no loop-carried RNG
    /// dependency: the CPU pipelines the index arithmetic of many future
    /// steps while earlier steps' state loads are still in flight. The
    /// relaxation also removes every rejection loop (multiply-shift
    /// scheduling, bias `n/2⁶⁴`), every partner-draw branch and divide
    /// ([`Topology::sample_partner_turbo`]), and — via `transition_turbo`
    /// overrides — the data-dependent transition branches.
    ///
    /// An earlier variant of this engine materialised 1024-step buffers of
    /// resolved indices (a separate index pass feeding an apply pass); the
    /// buffer traffic made it ~2× slower than this fused loop at equal
    /// randomness, so the batching now lives only in the *randomness
    /// structure* (independent per-step streams), not in memory.
    ///
    /// `inline(never)`: the loop is called with large `len` (call overhead
    /// is nil) and keeping it a standalone, entry-aligned symbol makes its
    /// code layout independent of the surrounding binary — inlined into
    /// large callers it was observed to land on slow-decode alignments
    /// (2–3× step-rate swings between otherwise identical builds).
    #[inline(never)]
    fn run_batch(&mut self, len: u64) {
        let m = P::OBSERVATIONS;
        // Split borrows: with the state slice, topology, and protocol in
        // *disjoint* locals, the compiler knows the per-step state store
        // cannot alias the `Vec` descriptor or the topology/protocol
        // fields, so slice pointer/length and topology constants stay in
        // registers across iterations instead of being conservatively
        // reloaded after every store (measured ~3× on the ring).
        let TurboSimulator {
            states,
            topology,
            protocol,
            weyl_base,
            step,
            ..
        } = self;
        let states = states.as_mut_slice();
        let n = states.len();
        let mut pos =
            weyl_base.wrapping_add(step.wrapping_mul(Self::WORDS_PER_STEP.wrapping_mul(GOLDEN)));
        for _ in 0..len {
            pos = pos.wrapping_add(GOLDEN);
            let x = splitmix64(pos);
            // Multiply-shift scheduling draw (bias n/2^64).
            let u = ((x as u128 * n as u128) >> 64) as usize;
            let me = states[u].widen();
            let mut observed = [0u32; MAX_PACKED_OBSERVATIONS];
            let mut last = x;
            for slot in observed.iter_mut().take(m) {
                pos = pos.wrapping_add(GOLDEN);
                last = splitmix64(pos);
                let v = topology.sample_partner_turbo(u, last);
                *slot = states[v].widen();
            }
            // Transition entropy: the unconsumed low bits of the last
            // partner word; the fallback stream for protocols drawing
            // beyond it is parked one hash away.
            let mut rng = CounterRng::from_state(last ^ GOLDEN);
            let next = protocol.transition_turbo(me, &observed[..m], last, &mut rng);
            states[u] = W::narrow(next);
        }
        self.step += len;
    }

    /// Runs `steps` time-steps.
    pub fn run(&mut self, steps: u64) {
        // Recorded per batch, not per step: one branch per `run` call.
        pp_obs::obs_count!("turbo.steps", steps);
        pp_obs::obs_count!("turbo.batches", 1);
        self.run_batch(steps);
    }

    /// Number of agents.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Returns `true` if there are no agents (impossible by construction,
    /// provided for API symmetry).
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Number of time-steps executed so far.
    pub fn step_count(&self) -> u64 {
        self.step
    }

    /// The seed this simulator was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The stored state words, indexed by agent id.
    pub fn states_words(&self) -> &[W] {
        &self.states
    }

    /// The population widened back to packed `u32` form.
    pub fn states_packed(&self) -> Vec<u32> {
        self.states.iter().map(|w| w.widen()).collect()
    }

    /// Decodes the full population into generic states.
    pub fn states_unpacked(&self) -> Vec<P::State> {
        self.states
            .iter()
            .map(|w| self.protocol.unpack(w.widen()))
            .collect()
    }

    /// Decodes the population into a generic-engine [`Population`], for
    /// checkers written against the reference types.
    pub fn population(&self) -> Population<P::State> {
        Population::new(self.states_unpacked())
    }

    /// Decoded state of agent `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u >= len()`.
    pub fn state(&self, u: usize) -> P::State {
        self.protocol.unpack(self.states[u].widen())
    }

    /// Overwrites the state of agent `u` — the hook adversarial processes
    /// use to apply structural changes between time-steps.
    ///
    /// # Panics
    ///
    /// Panics if `u >= len()` or the packed state overflows `W`.
    pub fn set_state(&mut self, u: usize, state: &P::State) {
        self.states[u] = W::narrow(self.protocol.pack(state));
    }

    /// Replaces the whole packed population, resizing the topology (via
    /// [`Topology::resized`]) when the length changes — the bulk-rewrite
    /// path of the [`Engine`](crate::Engine) structural-mutation surface.
    ///
    /// # Panics
    ///
    /// Panics if fewer than 2 states are given, a state overflows `W`, or
    /// the length changed and the topology family has no canonical resize.
    pub fn replace_packed_states(&mut self, states: Vec<u32>) {
        assert!(states.len() >= 2, "population needs at least 2 agents");
        assert!(
            u32::try_from(states.len()).is_ok(),
            "turbo batch buffers store node ids as u32; {} agents is too many",
            states.len()
        );
        if states.len() != self.states.len() {
            self.topology = crate::engine::resize_topology(&self.topology, states.len());
        }
        self.states = states.into_iter().map(W::narrow).collect();
    }

    /// The protocol under simulation.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// The interaction topology.
    pub fn topology(&self) -> &T {
        &self.topology
    }

    /// Rewinds the non-population resume state to a snapshot's values:
    /// the whole stream is keyed by `(seed, step)`, so clock and seed
    /// (plus the seed-derived walk base) are the entire private state.
    pub(crate) fn restore_raw(&mut self, step: u64, seed: u64) {
        self.step = step;
        self.seed = seed;
        self.weyl_base = splitmix64(seed ^ 0xA076_1D64_78BD_642F);
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
        assert_eq!(sim.population().states(), &[5, 6, 9]);
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
