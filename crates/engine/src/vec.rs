//! The lane-parallel ensemble engine: L replicas per step loop.
//!
//! Every real workload in this workspace — convergence sweeps, the
//! `pp-stats` equivalence harnesses, the adversary t-bins — runs
//! *ensembles* of independent replicas of one `(topology, protocol)`
//! pair, and [`replicate`](crate::replicate()) schedules them one scalar
//! run at a time. A single run is already at the memory/port floor
//! ([`TurboSimulator`](crate::TurboSimulator) on the ring matches a
//! hand-written minimal loop), so the remaining headroom is *data
//! parallelism across replicas*, not more scalar speed.
//!
//! [`VecSimulator`] steps `L` replicas in lockstep:
//!
//! * **Lane-major SoA state.** The state array is `[n × L]` words
//!   (`states[u·L + l]` = agent `u` in replica `l`), so loading the
//!   scheduled agent's row touches all `L` replicas with one contiguous
//!   load — at `W = u8`, `L = 32` that is exactly one AVX2 register (half
//!   an AVX-512 register) per agent.
//! * **A shared schedule walk.** All lanes schedule the *same* agent
//!   each step: one multiply-shift draw from a turbo-style Weyl walk
//!   keyed by the ensemble's master seed serves every lane, which is
//!   what makes the row load/store contiguous.
//! * **Per-lane partner/aux streams.** Each lane owns an independent
//!   Weyl walk keyed by its own seed (derivation keyed like
//!   `CounterRng::for_shard(seed, lane, block)` — every component hashed
//!   through the SplitMix64 finalizer), so partner choices and
//!   transition entropy are independent across lanes and each lane
//!   reproduces the scalar trajectory `F(master_seed, lane_seed)`
//!   regardless of which group, slot, or width it runs in.
//!
//! With `L = 1` and `lane_seed == master_seed` the walks coincide with
//! [`TurboSimulator`](crate::TurboSimulator)'s positions exactly, so a one-lane vec run is
//! **bit-exact** against turbo under a shared seed — that is the anchor
//! test in `tests/vec_equivalence.rs`, and it pins the whole derivation.
//!
//! # Equivalence contract (per lane)
//!
//! A lane's marginal trajectory is distributed exactly like a scalar
//! turbo run: same schedule distribution, same partner distribution, same
//! transition entropy. Lanes sharing a master seed also share *which*
//! agent is scheduled each step, so they are conditionally independent
//! given the schedule — observables can correlate positively across
//! lanes of one group, never across groups with distinct masters. The
//! `pp-stats` harness in `tests/vec_equivalence.rs` checks the full
//! battery per lane; EXPERIMENTS.md ("Ensemble tier") states the
//! contract.

use crate::engine::{
    check_population, check_states_arity, check_states_width, fit_population, tally_packed,
};
use crate::kernel::walk_base;
use crate::packed::MAX_PACKED_OBSERVATIONS;
use crate::snapshot::{EngineSnapshot, SnapshotError};
use crate::{Engine, PackedProtocol, TurboWord};
use pp_graph::Topology;
use rand::rngs::{splitmix64, CounterRng, GOLDEN};

/// The lane-parallel ensemble simulator: `L` replicas of one
/// `(protocol, topology)` pair stepped in lockstep.
///
/// See the [module docs](self) for the randomness derivation and the
/// per-lane equivalence contract. Use [`replicate_vec`](crate::replicate_vec)
/// to run an arbitrary seed list through lane groups with a scalar
/// remainder fallback.
///
/// # Examples
///
/// ```
/// use pp_engine::{Engine, PackedProtocol, VecSimulator};
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
/// // Four replicas of the same initial configuration, one step loop.
/// let mut sim = VecSimulator::<_, _, u8, 4>::from_seed(PackedVoter, Cycle::new(8), &states, 7);
/// sim.run(10_000);
/// assert_eq!(sim.step_count(), 10_000);
/// // Lanes hold independent replicas.
/// let lane0 = sim.lane_states_packed(0);
/// assert_eq!(lane0.len(), 8);
/// ```
#[derive(Debug)]
pub struct VecSimulator<P: PackedProtocol, T: Topology, W: TurboWord = u8, const L: usize = 8> {
    protocol: P,
    topology: T,
    /// Lane-major SoA: `states[u * L + l]` is agent `u` in replica `l`.
    states: Vec<W>,
    step: u64,
    /// Keys the shared schedule walk: step `t`'s scheduling draw sits at
    /// `walk_base(master_seed) + (t·words + 1)·GOLDEN`.
    master_seed: u64,
    /// Keys the per-lane partner/aux walks: lane `l`'s observation `j` at
    /// step `t` sits at `walk_base(lane_seeds[l]) + (t·words + 2 + j)·GOLDEN`.
    lane_seeds: [u64; L],
}

impl<P: PackedProtocol, T: Topology, W: TurboWord, const L: usize> VecSimulator<P, T, W, L> {
    /// Uniform random words each lane consumes per time-step: one
    /// scheduling slot (shared across lanes) plus one per observation.
    /// Matches [`TurboSimulator`](crate::TurboSimulator)'s layout so
    /// one-lane runs visit the same Weyl positions.
    const WORDS_PER_STEP: u64 = 1 + P::OBSERVATIONS as u64;

    /// Creates an `L`-lane simulator at time-step 0: every lane starts
    /// from the same packed initial configuration, lane `l`'s partner/aux
    /// walk is keyed by `lane_seeds[l]`, and the shared schedule walk by
    /// `master_seed`.
    ///
    /// # Panics
    ///
    /// Panics if `L == 0`, the number of initial states does not match
    /// the topology size, the population is smaller than 2,
    /// `P::OBSERVATIONS` is 0 or above [`MAX_PACKED_OBSERVATIONS`], the
    /// topology exceeds `u32::MAX` nodes, or any packed initial state
    /// overflows the storage word `W`.
    pub fn new(
        protocol: P,
        topology: T,
        initial_states: &[P::State],
        master_seed: u64,
        lane_seeds: [u64; L],
    ) -> Self {
        let packed = initial_states.iter().map(|s| protocol.pack(s)).collect();
        Self::from_packed(protocol, topology, packed, master_seed, lane_seeds)
    }

    /// [`new`](Self::new) from already-packed (`u32`) states; each lane
    /// starts from a copy of the given configuration.
    ///
    /// # Panics
    ///
    /// Same conditions as [`new`](Self::new).
    pub fn from_packed(
        protocol: P,
        topology: T,
        states: Vec<u32>,
        master_seed: u64,
        lane_seeds: [u64; L],
    ) -> Self {
        assert!(L > 0, "vec engine needs at least one lane");
        check_population::<P>(states.len(), topology.len());
        VecSimulator {
            protocol,
            topology,
            states: lane_major::<W, L>(&states),
            step: 0,
            master_seed,
            lane_seeds,
        }
    }

    /// An `L`-lane simulator from a single seed: lane 0's partner/aux
    /// walk is keyed by `seed` itself — so at `L = 1` this is positionally
    /// identical to `TurboSimulator::new(.., seed)` — and lanes `1..L`
    /// by a widened batch draw from `seed`'s counter stream
    /// ([`CounterRng::next_u64x`]).
    ///
    /// # Panics
    ///
    /// Same conditions as [`new`](Self::new).
    pub fn from_seed(protocol: P, topology: T, initial_states: &[P::State], seed: u64) -> Self {
        Self::new(
            protocol,
            topology,
            initial_states,
            seed,
            Self::lane_seeds_from(seed),
        )
    }

    /// The lane-seed derivation behind [`from_seed`](Self::from_seed):
    /// `[seed, d₁, …, d_{L−1}]` with the `dᵢ` one batch draw from
    /// `CounterRng::for_step(seed, 0)`.
    pub fn lane_seeds_from(seed: u64) -> [u64; L] {
        let mut seeds = CounterRng::for_step(seed, 0).next_u64x::<L>();
        seeds[0] = seed;
        seeds
    }

    /// Runs one batch of `len` time-steps as a single fused loop.
    ///
    /// Per step: one shared multiply-shift scheduling draw picks agent
    /// `u` for every lane, the `L`-word row `states[u·L..]` is loaded,
    /// each lane hashes its own walk for partner/aux words, and
    /// [`PackedProtocol::transition_vec`] advances all lanes at once.
    ///
    /// The lane work is *phase-split* into separate fixed-trip loops —
    /// hash all lanes, then draw all partners, then gather — because
    /// that is what the autovectorizer needs: a fused
    /// hash→partner→gather body has a bounds-checked load in its middle
    /// and compiles fully scalar, while the split phases are pure
    /// register arithmetic (SplitMix64 is 8 lanes per AVX-512 word via
    /// `vpmullq`) plus one inherently scalar gather loop. For the same
    /// reason the scratch buffers live outside the step loop (a
    /// `[[u32; L]; MAX_PACKED_OBSERVATIONS]` local re-zeroed per step is
    /// a `memset` call per step) and every row index is clamped with a
    /// no-op `min` that lets the compiler discharge the bounds checks.
    ///
    /// **No lane loop carries a panic edge.** One bounds check or
    /// `assert!` inside a lane loop keeps the whole loop scalar, so every
    /// phase is written for the compiler to prove its indices:
    ///
    /// * hash: register arithmetic, no loads;
    /// * partner: the topology's batched sampler (the torus indexes a
    ///   fixed four-entry candidate array);
    /// * gather: each row index is clamped below `n·L`, which the row
    ///   copy's bounds check earlier in the step proves non-empty — that
    ///   per-step check is what lets the gather go unchecked;
    /// * threshold + transition: [`PackedProtocol::transition_vec`] keeps
    ///   the same rule for its own lookups (Diversification states its
    ///   threshold table non-empty before the lane loop, which turns the
    ///   `L` lookups into vector gathers).
    ///
    /// What remains is one predictable branch per step, outside the lane
    /// loops: the row slice bound, the threshold table's non-emptiness,
    /// and the topology's own node check.
    ///
    /// `inline(never)` for the same code-layout reason as the counter-RNG
    /// step kernel turbo and sharded run (entry-aligned standalone
    /// symbol).
    #[inline(never)]
    pub(crate) fn run_batch(&mut self, len: u64) {
        // Recorded per batch, not per step: one branch per call.
        pp_obs::obs_count!("vec.steps", len);
        pp_obs::obs_count!("vec.lane_steps", len.saturating_mul(L as u64));
        pp_obs::obs_count!("vec.batches", 1);
        let m = P::OBSERVATIONS;
        // Split borrows, as in the step kernel: disjoint locals let the
        // compiler keep slice pointers and walk bases in registers across
        // the per-step stores.
        let VecSimulator {
            states,
            topology,
            protocol,
            master_seed,
            lane_seeds,
            step,
        } = self;
        let states = states.as_mut_slice();
        let n = states.len() / L;
        // Re-slice to exactly `n·L` words (a no-op — the length is always
        // a multiple of `L`). This states the array bound without the
        // division, which is what lets the compiler prove `v·L + l < len`
        // from `v ≤ n−1` and erase the per-lane bounds checks in the
        // row and gather loops below.
        let states = &mut states[..n * L];
        let sched_base = walk_base(*master_seed);
        let lane_bases = lane_seeds.map(walk_base);
        let stride = Self::WORDS_PER_STEP.wrapping_mul(GOLDEN);
        // Position offset of this step's word block: (t · words) · GOLDEN.
        let mut woff = step.wrapping_mul(stride);
        // Per-step scratch, hoisted: slots `< m` are fully rewritten
        // every step, slots `>= m` are never read. Everything stays in
        // the storage width `W` — rows move with plain 32-byte copies
        // and the transition's mask arithmetic runs at `u8` width (32
        // lanes per vector register), with no widen/narrow pass.
        let mut me = [W::ZERO; L];
        let mut observed = [[W::ZERO; L]; MAX_PACKED_OBSERVATIONS];
        let mut aux = [0u64; L];
        let mut partners = [0usize; L];
        for _ in 0..len {
            let x = splitmix64(sched_base.wrapping_add(woff).wrapping_add(GOLDEN));
            // Multiply-shift scheduling draw (bias n/2^64), shared by all
            // lanes — the one draw that keeps the row access contiguous.
            // `u < n` always holds; the `min` restates it in terms the
            // bounds-check eliminator can use.
            let u = (((x as u128 * n as u128) >> 64) as usize).min(n - 1);
            let row = u * L;
            me.copy_from_slice(&states[row..row + L]);
            for (j, slot) in observed.iter_mut().take(m).enumerate() {
                let off = woff.wrapping_add(GOLDEN.wrapping_mul(2 + j as u64));
                // Phase 1: per-lane walk words — straight-line u64
                // arithmetic, no loads. `aux` keeps the last
                // observation's words, as `transition_vec` expects.
                for (a, base) in aux.iter_mut().zip(&lane_bases) {
                    *a = splitmix64(base.wrapping_add(off));
                }
                // Phase 2: per-lane partner draws, batched so the
                // topology hoists its `u`-only work (neighbour
                // candidates, modular coordinates) out of the lane loop.
                topology.sample_partners_turbo(u, &aux, &mut partners);
                // Phase 3: the row gather — the one inherently scalar
                // loop. Samplers guarantee `v < n`; clamping the flat
                // index (a no-op) keeps it below `len` by construction,
                // so the loop carries no panic edge.
                let last = n * L - 1;
                for l in 0..L {
                    debug_assert!(
                        partners[l] < n,
                        "sampler returned node {} >= {n}",
                        partners[l]
                    );
                    let idx = (partners[l] * L + l).min(last);
                    slot[l] = states[idx];
                }
            }
            protocol.transition_vec(&mut me, &observed[..m], &aux);
            states[row..row + L].copy_from_slice(&me);
            woff = woff.wrapping_add(stride);
        }
        self.step += len;
    }

    /// Number of lanes (`L`).
    pub fn lanes(&self) -> usize {
        L
    }

    /// The per-lane seeds keying the partner/aux walks.
    pub fn lane_seeds(&self) -> &[u64; L] {
        &self.lane_seeds
    }

    /// The raw lane-major state words: `[u·L + l]` = agent `u`, lane `l`.
    pub fn states_words(&self) -> &[W] {
        &self.states
    }

    /// Lane `l`'s population widened back to packed `u32` form.
    ///
    /// # Panics
    ///
    /// Panics if `l >= L`.
    pub fn lane_states_packed(&self, l: usize) -> Vec<u32> {
        assert!(l < L, "lane {l} out of range for {L} lanes");
        self.states[l..]
            .iter()
            .step_by(L)
            .map(|w| w.widen())
            .collect()
    }

    /// The protocol under simulation.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// The interaction topology.
    pub fn topology(&self) -> &T {
        &self.topology
    }
}

/// Copies one packed configuration into every lane, lane-major.
fn lane_major<W: TurboWord, const L: usize>(states: &[u32]) -> Vec<W> {
    // Sized up front: collecting the flattened iterator instead grows the
    // `n·L` array by doubling, which raised peak RSS measurably.
    let mut out = Vec::with_capacity(states.len() * L);
    for &p in states {
        out.extend(std::iter::repeat_n(W::narrow(p), L));
    }
    out
}

/// The ensemble engine on the Engine surface: **lane 0 is the observed
/// replica** (class counts, snapshots, per-agent reads), while structural
/// mutations — set/replace/push/remove — apply to **every lane**, keeping
/// the lanes exchangeable replicas of the same mutated process. Replicas
/// re-diverge through their per-lane streams after a bulk rewrite.
impl<P, T, W, const L: usize> Engine for VecSimulator<P, T, W, L>
where
    P: PackedProtocol,
    P::State: Send + Sync,
    T: Topology,
    W: TurboWord,
{
    type State = P::State;

    fn len(&self) -> usize {
        self.states.len() / L
    }

    fn step_count(&self) -> u64 {
        self.step
    }

    /// The master seed keying the shared schedule walk.
    fn seed(&self) -> u64 {
        self.master_seed
    }

    /// Runs `steps` time-steps (per lane: every lane advances `steps`).
    fn run(&mut self, steps: u64) {
        self.run_batch(steps);
    }

    fn class_counts(&self) -> Vec<u64> {
        tally_packed([self.lane_states_packed(0).as_slice()])
    }

    fn visit_states(&self, f: &mut dyn FnMut(usize, &Self::State)) {
        for (u, p) in self.lane_states_packed(0).into_iter().enumerate() {
            f(u, &self.protocol.unpack(p));
        }
    }

    fn state(&self, u: usize) -> Self::State {
        assert!(u < self.len(), "agent {u} out of range");
        self.protocol.unpack(self.states[u * L].widen())
    }

    /// Overwrites the state of agent `u` in **every lane**.
    fn set_state(&mut self, u: usize, state: &Self::State) {
        assert!(u < self.len(), "agent {u} out of range");
        let w = W::narrow(self.protocol.pack(state));
        self.states[u * L..(u + 1) * L].fill(w);
    }

    fn set_states(&mut self, states: &[Self::State]) {
        let packed: Vec<u32> = states.iter().map(|s| self.protocol.pack(s)).collect();
        fit_population::<P, T>(&mut self.topology, packed.len());
        self.states = lane_major::<W, L>(&packed);
    }

    fn push_agent(&mut self, state: &Self::State) {
        let n = self.len() + 1;
        fit_population::<P, T>(&mut self.topology, n);
        let w = W::narrow(self.protocol.pack(state));
        self.states.extend(std::iter::repeat_n(w, L));
    }

    /// Removes agent `u` from every lane, moving the last agent's row into
    /// its slot.
    fn swap_remove_agent(&mut self, u: usize) {
        let n = self.len();
        assert!(u < n, "agent {u} out of range");
        assert!(n > 2, "removal would leave fewer than 2 agents");
        fit_population::<P, T>(&mut self.topology, n - 1);
        let last = (n - 1) * L;
        self.states.copy_within(last.., u * L);
        self.states.truncate(last);
    }

    fn topology_name(&self) -> String {
        self.topology.name()
    }

    fn supports_resize(&self) -> bool {
        self.topology.resized(self.len()).is_some()
    }

    fn save_snapshot(&mut self) -> EngineSnapshot {
        EngineSnapshot {
            engine: "vec".into(),
            protocol: self.protocol.name(),
            topology: self.topology.name(),
            n: self.len() as u64,
            clock: self.step,
            seed: self.master_seed,
            // All lanes, lane-major: the Engine surface observes lane 0
            // but the ensemble's state is every replica.
            states: self.states.iter().map(|w| w.widen()).collect(),
            aux: std::iter::once(L as u64)
                .chain(self.lane_seeds.iter().copied())
                .collect(),
        }
    }

    fn restore_snapshot(&mut self, snapshot: &EngineSnapshot) -> Result<(), SnapshotError> {
        snapshot.check_identity(
            "vec",
            &self.protocol.name(),
            &self.topology.name(),
            self.len() as u64,
        )?;
        if snapshot.aux.len() != 1 + L || snapshot.aux[0] != L as u64 {
            return Err(SnapshotError::BadPayload(format!(
                "vec tier aux must be [L, lane_seeds…] with L = {L}, got {:?}",
                snapshot.aux.first()
            )));
        }
        check_states_arity(snapshot, snapshot.n * L as u64)?;
        check_states_width::<W>(snapshot)?;
        self.states = snapshot.states.iter().map(|&p| W::narrow(p)).collect();
        self.step = snapshot.clock;
        self.master_seed = snapshot.seed;
        self.lane_seeds.copy_from_slice(&snapshot.aux[1..]);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TurboSimulator;
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

    /// The anchor property: one lane with `lane_seed == master_seed`
    /// visits exactly the turbo engine's Weyl positions, so the
    /// trajectories are bit-identical — for both storage widths and both
    /// observation arities.
    #[test]
    fn one_lane_is_bit_exact_vs_turbo() {
        let init: Vec<u32> = (0..64).map(|u| u % 200).collect();
        for seed in [0u64, 9, 0xDEAD_BEEF] {
            let mut turbo = TurboSimulator::<_, _, u8>::new(Copy1, Torus2d::new(8, 8), &init, seed);
            let mut vec =
                VecSimulator::<_, _, u8, 1>::new(Copy1, Torus2d::new(8, 8), &init, seed, [seed]);
            for _ in 0..5 {
                turbo.run(3_000);
                vec.run(3_000);
                assert_eq!(
                    turbo.states_packed(),
                    vec.lane_states_packed(0),
                    "seed {seed}"
                );
            }
            let mut turbo2 =
                TurboSimulator::<_, _, u32>::new(MaxOfTwo, Cycle::new(64), &init, seed);
            let mut vec2 =
                VecSimulator::<_, _, u32, 1>::new(MaxOfTwo, Cycle::new(64), &init, seed, [seed]);
            turbo2.run(10_000);
            vec2.run(10_000);
            assert_eq!(
                turbo2.states_packed(),
                vec2.lane_states_packed(0),
                "seed {seed}"
            );
        }
    }

    /// Each lane of a multi-lane run reproduces the scalar trajectory of
    /// its own seed: `F(master, lane_seed)` is independent of grouping,
    /// lane slot, and `L`.
    #[test]
    fn lanes_reproduce_scalar_trajectories_byte_identically() {
        const L: usize = 8;
        let init: Vec<u32> = (0..60).map(|u| u % 7).collect();
        let master = 4242;
        let lane_seeds: [u64; L] = core::array::from_fn(|l| 900 + 13 * l as u64);
        let mut wide =
            VecSimulator::<_, _, u8, L>::new(Copy1, Torus2d::new(6, 10), &init, master, lane_seeds);
        wide.run(20_000);
        for (l, &s) in lane_seeds.iter().enumerate() {
            let mut scalar =
                VecSimulator::<_, _, u8, 1>::new(Copy1, Torus2d::new(6, 10), &init, master, [s]);
            scalar.run(20_000);
            assert_eq!(
                wide.lane_states_packed(l),
                scalar.lane_states_packed(0),
                "lane {l} diverged from its scalar trajectory"
            );
        }
        // Moving a seed to a different lane slot changes nothing.
        let mut swapped_seeds = lane_seeds;
        swapped_seeds.swap(2, 5);
        let mut swapped = VecSimulator::<_, _, u8, L>::new(
            Copy1,
            Torus2d::new(6, 10),
            &init,
            master,
            swapped_seeds,
        );
        swapped.run(20_000);
        assert_eq!(wide.lane_states_packed(2), swapped.lane_states_packed(5));
        assert_eq!(wide.lane_states_packed(5), swapped.lane_states_packed(2));
    }

    #[test]
    fn deterministic_and_batch_split_invariant() {
        const L: usize = 4;
        let init: Vec<u32> = (0..64).collect();
        let seeds = VecSimulator::<Copy1, Cycle, u8, L>::lane_seeds_from(9);
        let mut a = VecSimulator::<_, _, u8, L>::new(Copy1, Cycle::new(64), &init, 9, seeds);
        let mut b = VecSimulator::<_, _, u8, L>::new(Copy1, Cycle::new(64), &init, 9, seeds);
        a.run(10_000);
        b.run(3_000);
        b.run(7_000); // different batch split, same step keys
        assert_eq!(a.states_words(), b.states_words());
        let mut c = VecSimulator::<_, _, u8, L>::from_seed(Copy1, Cycle::new(64), &init, 10);
        c.run(10_000);
        assert_ne!(a.states_words(), c.states_words());
    }

    #[test]
    fn lanes_with_distinct_seeds_diverge() {
        const L: usize = 4;
        let init: Vec<u32> = (0..32).collect();
        let mut sim = VecSimulator::<_, _, u32, L>::from_seed(Copy1, Complete::new(32), &init, 5);
        sim.run(5_000);
        // With overwhelming probability at least one pair of lanes has
        // diverged after 5k voter steps on distinct partner streams.
        let distinct = (0..L)
            .map(|l| sim.lane_states_packed(l))
            .collect::<std::collections::HashSet<_>>();
        assert!(
            distinct.len() > 1,
            "all lanes produced identical trajectories"
        );
    }

    #[test]
    fn accessors_and_mutation_surface() {
        const L: usize = 3;
        let init: Vec<u32> = vec![5, 6, 7];
        let mut sim = VecSimulator::<_, _, u32, L>::from_seed(Copy1, Complete::new(3), &init, 1);
        assert_eq!(sim.len(), 3);
        assert_eq!(sim.lanes(), L);
        assert!(!sim.is_empty());
        assert_eq!(sim.seed(), 1);
        assert_eq!(sim.lane_seeds()[0], 1);
        assert_eq!(sim.state(2), 7);
        sim.set_state(2, &9);
        for l in 0..L {
            assert_eq!(sim.lane_states_packed(l), vec![5, 6, 9], "lane {l}");
        }
        assert_eq!(sim.snapshot(), vec![5, 6, 9]);
        sim.push_agent(&4);
        assert_eq!(sim.len(), 4);
        assert_eq!(sim.topology().len(), 4);
        assert_eq!(sim.lane_states_packed(1), vec![5, 6, 9, 4]);
        sim.swap_remove_agent(0);
        assert_eq!(sim.lane_states_packed(2), vec![4, 6, 9]);
        sim.set_states(&[1, 2]);
        assert_eq!(sim.len(), 2);
        assert_eq!(sim.topology().len(), 2);
        assert_eq!(sim.lane_states_packed(0), vec![1, 2]);
        assert_eq!(PackedProtocol::name(sim.protocol()), "copy");
        sim.run(8);
        assert_eq!(sim.step_count(), 8);
    }

    #[test]
    fn consensus_reached_in_every_lane() {
        const L: usize = 8;
        let init: Vec<u32> = (0..32).collect();
        let mut sim = VecSimulator::<_, _, u32, L>::from_seed(Copy1, Complete::new(32), &init, 5);
        sim.run(200_000);
        for l in 0..L {
            let lane = sim.lane_states_packed(l);
            assert!(
                lane.iter().all(|&s| s == lane[0]),
                "lane {l} did not reach consensus"
            );
        }
    }

    #[test]
    #[should_panic(expected = "population size")]
    fn rejects_size_mismatch() {
        VecSimulator::<_, _, u32, 2>::from_seed(Copy1, Cycle::new(4), &[1u32, 2, 3], 0);
    }

    #[test]
    #[should_panic(expected = "overflows u8")]
    fn u8_storage_rejects_wide_states() {
        VecSimulator::<_, _, u8, 2>::from_seed(Copy1, Cycle::new(3), &[1u32, 300, 2], 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_lane_out_of_range() {
        let init: Vec<u32> = vec![1, 2, 3];
        let sim = VecSimulator::<_, _, u32, 2>::from_seed(Copy1, Cycle::new(3), &init, 0);
        sim.lane_states_packed(2);
    }
}
