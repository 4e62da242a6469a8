//! The common contract of every simulation engine tier.
//!
//! Five fast tiers grew next to the generic [`Simulator`]
//! — packed, turbo, sharded, the lane-parallel ensemble (vec), and the
//! count-based dense engine in `pp-dense` — each at first with its own
//! ad-hoc driver API. Every workload that
//! wanted to ride a faster tier (the bench experiments, the adversary
//! suite) had to duplicate its driver loop per engine. [`Engine`] is the
//! one contract they all implement, so a workload written once runs on
//! whichever tier is fastest for it. For packed, turbo, sharded and vec it
//! is also the *only* driver API: each implements it in its own module, and
//! the types themselves add just constructors, settings and raw state views.
//!
//! # Observation currency: class counts
//!
//! The trait's bulk observable is [`class_counts`](Engine::class_counts):
//! the population tallied by **packed word** (the protocol's `u32` state
//! encoding, see [`PackedProtocol`]). Per-agent
//! engines tally their state array in `O(n)`; the dense engine *is* a
//! count vector, so its tally is `O(k)` — which is what keeps `n = 10⁸`
//! dense runs observable through the same generic driver that serves the
//! per-agent tiers. [`run_until`](Engine::run_until) and
//! [`run_observed`](Engine::run_observed) hand these counts to their
//! predicates; checkers that need per-agent resolution (fairness
//! occupancy, per-block statistics) stream through
//! [`visit_states`](Engine::visit_states) instead.
//!
//! # Structural mutation
//!
//! The adversary suite rewrites per-agent states
//! ([`set_state`](Engine::set_state) /
//! [`set_states`](Engine::set_states)) and grows or shrinks the population
//! ([`push_agent`](Engine::push_agent) /
//! [`swap_remove_agent`](Engine::swap_remove_agent)). Resizing requires
//! the topology family to have a canonical resize
//! ([`Topology::resized`]); on families
//! without one the engine panics rather than simulate on a stale edge
//! set. The dense engine exposes the same surface through a canonical
//! agent ordering (agents sorted by class), which makes index-based
//! adversarial processes — churn's uniform victim, shocks' recruit
//! sampling — distributionally exact on counts too.
//!
//! # Equivalence tiers
//!
//! The trait unifies the *API*, not the guarantee. `Simulator` and
//! `PackedSimulator` are bit-exact twins under a shared seed, and so are
//! turbo and a one-lane vec run; the turbo, sharded, vec (per lane) and
//! dense tiers promise the same process distribution, verified by the
//! `pp-stats` statistical-equivalence harness. See
//! EXPERIMENTS.md ("The Engine trait") for the full contract table.
//!
//! # Examples
//!
//! ```
//! use pp_engine::{Engine, PackedSimulator, Simulator};
//! use pp_graph::Complete;
//! use rand::Rng;
//!
//! /// Voter dynamics in both engine vocabularies.
//! #[derive(Debug, Clone)]
//! struct Copycat;
//!
//! impl pp_engine::Protocol for Copycat {
//!     type State = u32;
//!     fn transition(&self, _me: &u32, observed: &[&u32], _rng: &mut dyn Rng) -> u32 {
//!         *observed[0]
//!     }
//!     fn name(&self) -> String {
//!         "copycat".into()
//!     }
//! }
//!
//! impl pp_engine::PackedProtocol for Copycat {
//!     type State = u32;
//!     fn pack(&self, s: &u32) -> u32 {
//!         *s
//!     }
//!     fn unpack(&self, p: u32) -> u32 {
//!         p
//!     }
//!     fn transition<R: Rng>(&self, _me: u32, observed: &[u32], _rng: &mut R) -> u32 {
//!         observed[0]
//!     }
//!     fn name(&self) -> String {
//!         "copycat".into()
//!     }
//! }
//!
//! // One driver, any tier: the harness picks the engine at runtime.
//! let init: Vec<u32> = (0..8).collect();
//! let mut engines: Vec<Box<dyn Engine<State = u32>>> = vec![
//!     Box::new(Simulator::new(Copycat, Complete::new(8), init.clone(), 1)),
//!     Box::new(PackedSimulator::new(Copycat, Complete::new(8), &init, 1)),
//! ];
//! for e in &mut engines {
//!     e.run(100);
//!     assert_eq!(e.class_counts().iter().sum::<u64>(), 8);
//! }
//! ```

use crate::packed::MAX_PACKED_OBSERVATIONS;
use crate::snapshot::{EngineSnapshot, SnapshotError};
use crate::{PackedProtocol, Protocol, Simulator, TurboWord};
use pp_graph::Topology;

/// The driver contract shared by every engine tier.
///
/// Object-safe: experiment harnesses hold `Box<dyn Engine<State = S>>`
/// and dispatch once per *run call*, so the per-interaction hot loops stay
/// fully monomorphized inside each engine.
pub trait Engine: Send {
    /// The per-agent state the engine simulates (decoded form).
    type State: Clone + std::fmt::Debug + Send + Sync;

    /// Number of agents.
    fn len(&self) -> usize;

    /// Returns `true` if there are no agents (impossible by construction;
    /// provided for API symmetry).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of time-steps executed so far.
    fn step_count(&self) -> u64;

    /// The seed the engine was created with.
    fn seed(&self) -> u64;

    /// Runs `steps` time-steps.
    fn run(&mut self, steps: u64);

    /// Tallies the population by packed word: `counts[w]` is the number of
    /// agents whose [`PackedProtocol`] encoding equals `w`. The vector is
    /// sized to the largest occupied word plus one; absent words are zero.
    ///
    /// `O(n)` for per-agent engines, `O(k)` for the count-based dense
    /// engine — predicates written against class counts therefore inherit
    /// each tier's native observation cost.
    fn class_counts(&self) -> Vec<u64>;

    /// Streams `(agent index, state)` over the population in agent order.
    ///
    /// Engines without per-agent identity (the dense engine) synthesize a
    /// canonical ordering — agents sorted by class — which is stable
    /// between mutations but **not** across time-steps; per-agent
    /// *trajectories* are only meaningful on the per-agent tiers.
    fn visit_states(&self, f: &mut dyn FnMut(usize, &Self::State));

    /// Decodes the full population in agent order (allocates).
    fn snapshot(&self) -> Vec<Self::State> {
        let mut out = Vec::with_capacity(self.len());
        self.visit_states(&mut |_, s| out.push(s.clone()));
        out
    }

    /// Decoded state of agent `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u >= len()`.
    fn state(&self, u: usize) -> Self::State;

    /// Overwrites the state of agent `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u >= len()`.
    fn set_state(&mut self, u: usize, state: &Self::State);

    /// Replaces the whole population. A different length resizes the
    /// population; engines over a fixed topology family resize it via
    /// [`Topology::resized`].
    ///
    /// # Panics
    ///
    /// Panics if fewer than 2 states are given, or if the length changed
    /// and the topology family has no canonical resize.
    fn set_states(&mut self, states: &[Self::State]);

    /// Appends one agent in the given state, resizing the topology.
    ///
    /// # Panics
    ///
    /// Panics if the topology family has no canonical resize.
    fn push_agent(&mut self, state: &Self::State);

    /// Removes agent `u`, moving the last agent into its slot (the
    /// classic `swap_remove`), and resizes the topology.
    ///
    /// # Panics
    ///
    /// Panics if `u >= len()`, the removal would leave fewer than 2
    /// agents, or the topology family has no canonical resize.
    fn swap_remove_agent(&mut self, u: usize);

    /// Display name of the topology family the engine simulates on
    /// (e.g. `complete`, `ring`, `torus-8x8`) — lets callers report *which*
    /// family rejected an operation without holding the concrete type.
    fn topology_name(&self) -> String;

    /// Whether the engine's topology family has a canonical resize
    /// ([`Topology::resized`]), i.e. whether
    /// the population-resizing mutations ([`push_agent`](Engine::push_agent),
    /// [`swap_remove_agent`](Engine::swap_remove_agent), length-changing
    /// [`set_states`](Engine::set_states)) are available. Callers that can
    /// degrade gracefully (the adversary grid, the model checker) consult
    /// this instead of catching the resize panic.
    fn supports_resize(&self) -> bool;

    /// Captures the complete simulation state as a versioned
    /// [`EngineSnapshot`]: packed population, clock, seed, and the
    /// tier-private resume words (see the [`snapshot`](crate::snapshot)
    /// module docs for each tier's layout).
    ///
    /// Takes `&mut self` because a tier may first have to advance to its
    /// nearest *quiescent point* — the sharded tier drains to the next
    /// block boundary (up to `block − 1` extra steps), where the
    /// deferred cross-shard queues are empty; every other tier captures
    /// at the current clock. Read the returned snapshot's `clock` for
    /// the actual capture point.
    ///
    /// Restoring the snapshot into a freshly built engine of the same
    /// `(tier, protocol, topology, n)` — in this process or another —
    /// continues the trajectory bit-exactly: `run(a); save; restore;
    /// run(b)` equals `run(a); run(b)` (verified for all six tiers by
    /// `tests/engine_snapshot.rs`).
    fn save_snapshot(&mut self) -> EngineSnapshot;

    /// Replaces this engine's complete simulation state with a
    /// snapshot's, resuming its trajectory from `(seed, clock)`.
    ///
    /// Fails closed: the identity header (tier, protocol, topology,
    /// population size) is validated against this engine and the payload
    /// against the tier's shape invariants (aux arity, storage width,
    /// block alignment, count conservation); on any mismatch the engine
    /// is left unchanged and the error names what disagreed. A snapshot
    /// is never partially applied.
    fn restore_snapshot(&mut self, snapshot: &EngineSnapshot) -> Result<(), SnapshotError>;

    /// Runs until `pred(class_counts, step)` holds, checking every
    /// `check_every` steps (and once before the first step), for at most
    /// `max_steps` steps. Returns the step count at which the predicate
    /// first held, or `None` on timeout.
    ///
    /// # Panics
    ///
    /// Panics if `check_every == 0`.
    fn run_until(
        &mut self,
        max_steps: u64,
        check_every: u64,
        pred: &mut dyn FnMut(&[u64], u64) -> bool,
    ) -> Option<u64> {
        assert!(check_every > 0, "check_every must be positive");
        let deadline = self.step_count() + max_steps;
        if pred(&self.class_counts(), self.step_count()) {
            return Some(self.step_count());
        }
        while self.step_count() < deadline {
            let burst = check_every.min(deadline - self.step_count());
            self.run(burst);
            if pred(&self.class_counts(), self.step_count()) {
                return Some(self.step_count());
            }
        }
        None
    }

    /// Runs `steps` time-steps, invoking `observer(step, class_counts)`
    /// before the first step and after every `every`-th step.
    ///
    /// # Panics
    ///
    /// Panics if `every == 0`.
    fn run_observed(&mut self, steps: u64, every: u64, observer: &mut dyn FnMut(u64, &[u64])) {
        assert!(every > 0, "observation interval must be positive");
        observer(self.step_count(), &self.class_counts());
        let deadline = self.step_count() + steps;
        while self.step_count() < deadline {
            let burst = every.min(deadline - self.step_count());
            self.run(burst);
            observer(self.step_count(), &self.class_counts());
        }
    }
}

/// Tallies packed words into a counts vector sized to the largest
/// occupied word plus one. The words may arrive in several slices (a
/// sharded population is tallied shard by shard, in place); their order
/// does not matter.
pub(crate) fn tally_packed<'a, W: TurboWord>(parts: impl IntoIterator<Item = &'a [W]>) -> Vec<u64> {
    fn bump(counts: &mut Vec<u64>, w: u32) {
        let i = w as usize;
        if i >= counts.len() {
            counts.resize(i + 1, 0);
        }
        counts[i] += 1;
    }
    // Four accumulators fed round-robin. A converging population is made
    // of long runs of one word, and with a single array each increment
    // would wait on the store of the one before it.
    let mut acc: [Vec<u64>; 4] = Default::default();
    for part in parts {
        let mut quads = part.chunks_exact(4);
        for quad in &mut quads {
            for (counts, &w) in acc.iter_mut().zip(quad) {
                bump(counts, w.widen());
            }
        }
        for (counts, &w) in acc.iter_mut().zip(quads.remainder()) {
            bump(counts, w.widen());
        }
    }
    let [mut total, rest @ ..] = acc;
    for counts in rest {
        if counts.len() > total.len() {
            total.resize(counts.len(), 0);
        }
        for (t, c) in total.iter_mut().zip(&counts) {
            *t += c;
        }
    }
    total
}

/// The panic message for resizing shocks on non-resizable families.
pub(crate) fn resize_topology<T: Topology>(topology: &T, new_len: usize) -> T {
    topology.resized(new_len).unwrap_or_else(|| {
        panic!(
            "topology family `{}` has no canonical resize; population-resizing \
             shocks need a resizable family (e.g. Complete)",
            topology.name()
        )
    })
}

/// The population invariants of the packed tiers, checked by every
/// constructor and bulk rewrite: one agent per topology node, at least 2
/// agents, node ids that fit the `u32` ids of the sharded queues, and a
/// protocol arity the stack observation buffers hold.
pub(crate) fn check_population<P: PackedProtocol>(n: usize, topology_len: usize) {
    assert_eq!(
        n, topology_len,
        "population size {n} != topology size {topology_len}"
    );
    assert!(n >= 2, "population needs at least 2 agents");
    assert!(
        u32::try_from(n).is_ok(),
        "node ids are stored as u32; {n} agents is too many"
    );
    assert!(
        (1..=MAX_PACKED_OBSERVATIONS).contains(&P::OBSERVATIONS),
        "packed protocol must observe 1..={MAX_PACKED_OBSERVATIONS} agents, got {}",
        P::OBSERVATIONS
    );
}

/// The bulk-rewrite twin of [`check_population`]: resizes `topology` to
/// `n` nodes when the population length changed, then checks.
pub(crate) fn fit_population<P: PackedProtocol, T: Topology>(topology: &mut T, n: usize) {
    // Ahead of the resize, which would reject a tiny size in the
    // topology's own words.
    assert!(n >= 2, "population needs at least 2 agents");
    if n != topology.len() {
        *topology = resize_topology(topology, n);
    }
    check_population::<P>(n, topology.len());
}

impl<P, T> Engine for Simulator<P, T>
where
    P: Protocol + PackedProtocol<State = <P as Protocol>::State>,
    <P as Protocol>::State: Send + Sync,
    T: Topology,
{
    type State = <P as Protocol>::State;

    fn len(&self) -> usize {
        self.population().len()
    }

    fn step_count(&self) -> u64 {
        Simulator::step_count(self)
    }

    fn seed(&self) -> u64 {
        Simulator::seed(self)
    }

    fn run(&mut self, steps: u64) {
        Simulator::run(self, steps);
    }

    fn class_counts(&self) -> Vec<u64> {
        let protocol = self.protocol();
        let packed: Vec<u32> = self
            .population()
            .states()
            .iter()
            .map(|s| PackedProtocol::pack(protocol, s))
            .collect();
        tally_packed([packed.as_slice()])
    }

    fn visit_states(&self, f: &mut dyn FnMut(usize, &Self::State)) {
        for (u, s) in self.population().iter() {
            f(u, s);
        }
    }

    fn state(&self, u: usize) -> Self::State {
        self.population().state(u).clone()
    }

    fn set_state(&mut self, u: usize, state: &Self::State) {
        self.population_mut().set_state(u, state.clone());
    }

    fn set_states(&mut self, states: &[Self::State]) {
        assert!(states.len() >= 2, "population needs at least 2 agents");
        if states.len() != self.population().len() {
            let topology = resize_topology(self.topology(), states.len());
            self.replace_population(states.to_vec(), topology);
        } else {
            for (u, s) in states.iter().enumerate() {
                self.population_mut().set_state(u, s.clone());
            }
        }
    }

    fn push_agent(&mut self, state: &Self::State) {
        let topology = resize_topology(self.topology(), self.population().len() + 1);
        self.population_mut().push(state.clone());
        self.set_topology(topology);
    }

    fn swap_remove_agent(&mut self, u: usize) {
        assert!(
            self.population().len() > 2,
            "removal would leave fewer than 2 agents"
        );
        let topology = resize_topology(self.topology(), self.population().len() - 1);
        self.population_mut().swap_remove(u);
        self.set_topology(topology);
    }

    fn topology_name(&self) -> String {
        self.topology().name()
    }

    fn supports_resize(&self) -> bool {
        self.topology().resized(self.len()).is_some()
    }

    fn save_snapshot(&mut self) -> EngineSnapshot {
        EngineSnapshot {
            engine: "agent".into(),
            protocol: PackedProtocol::name(self.protocol()),
            topology: self.topology().name(),
            n: self.len() as u64,
            clock: Simulator::step_count(self),
            seed: Simulator::seed(self),
            states: self
                .population()
                .states()
                .iter()
                .map(|s| PackedProtocol::pack(self.protocol(), s))
                .collect(),
            aux: self.rng_state().to_vec(),
        }
    }

    fn restore_snapshot(&mut self, snapshot: &EngineSnapshot) -> Result<(), SnapshotError> {
        snapshot.check_identity(
            "agent",
            &PackedProtocol::name(self.protocol()),
            &self.topology().name(),
            self.len() as u64,
        )?;
        let rng_state = sequential_rng_state(snapshot)?;
        check_states_arity(snapshot, snapshot.n)?;
        for (u, &p) in snapshot.states.iter().enumerate() {
            let s = PackedProtocol::unpack(self.protocol(), p);
            self.population_mut().set_state(u, s);
        }
        self.restore_raw(snapshot.clock, snapshot.seed, rng_state);
        Ok(())
    }
}

/// Validates the shared sequential-tier aux layout: exactly the four
/// xoshiro256++ state words, not all zero.
pub(crate) fn sequential_rng_state(snapshot: &EngineSnapshot) -> Result<[u64; 4], SnapshotError> {
    let aux: [u64; 4] = snapshot.aux.as_slice().try_into().map_err(|_| {
        SnapshotError::BadPayload(format!(
            "sequential tier aux must be the 4 generator words, got {}",
            snapshot.aux.len()
        ))
    })?;
    if aux == [0, 0, 0, 0] {
        return Err(SnapshotError::BadPayload(
            "all-zero generator state is unreachable".into(),
        ));
    }
    Ok(aux)
}

/// Validates that the snapshot carries exactly `expected` state words.
pub(crate) fn check_states_arity(
    snapshot: &EngineSnapshot,
    expected: u64,
) -> Result<(), SnapshotError> {
    if snapshot.states.len() as u64 != expected {
        return Err(SnapshotError::BadPayload(format!(
            "expected {expected} state words, got {}",
            snapshot.states.len()
        )));
    }
    Ok(())
}

/// Validates that every packed state word fits the tier's storage width.
pub(crate) fn check_states_width<W: TurboWord>(
    snapshot: &EngineSnapshot,
) -> Result<(), SnapshotError> {
    if let Some(&p) = snapshot.states.iter().find(|&&p| p > W::CAPACITY) {
        return Err(SnapshotError::BadPayload(format!(
            "state word {p} overflows the tier's storage capacity {}",
            W::CAPACITY
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PackedSimulator, ShardedSimulator, TurboSimulator, VecSimulator};
    use pp_graph::{Complete, Cycle};
    use rand::Rng;

    /// Voter dynamics in both engine vocabularies.
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

    fn engines(n: usize, seed: u64) -> Vec<(&'static str, Box<dyn Engine<State = u32>>)> {
        let init: Vec<u32> = (0..n as u32).collect();
        vec![
            (
                "generic",
                Box::new(Simulator::new(Copy1, Complete::new(n), init.clone(), seed)),
            ),
            (
                "packed",
                Box::new(PackedSimulator::new(Copy1, Complete::new(n), &init, seed)),
            ),
            (
                "turbo",
                Box::new(TurboSimulator::<_, _, u32>::new(
                    Copy1,
                    Complete::new(n),
                    &init,
                    seed,
                )),
            ),
            (
                "sharded",
                Box::new(ShardedSimulator::<_, _, u32>::new(
                    Copy1,
                    Complete::new(n),
                    &init,
                    seed,
                )),
            ),
            (
                "vec",
                Box::new(VecSimulator::<_, _, u32, 4>::from_seed(
                    Copy1,
                    Complete::new(n),
                    &init,
                    seed,
                )),
            ),
        ]
    }

    #[test]
    fn class_counts_and_snapshot_agree_across_tiers() {
        for (name, e) in engines(16, 3) {
            assert_eq!(e.len(), 16, "{name}");
            assert_eq!(e.snapshot(), (0..16).collect::<Vec<u32>>(), "{name}");
            let counts = e.class_counts();
            assert_eq!(counts.len(), 16, "{name}");
            assert!(counts.iter().all(|&c| c == 1), "{name}: {counts:?}");
        }
    }

    #[test]
    fn mutation_surface_is_uniform() {
        for (name, mut e) in engines(8, 5) {
            e.set_state(3, &99);
            assert_eq!(e.state(3), 99, "{name}");
            e.push_agent(&7);
            assert_eq!(e.len(), 9, "{name}");
            assert_eq!(e.state(8), 7, "{name}");
            e.swap_remove_agent(0);
            assert_eq!(e.len(), 8, "{name}");
            // swap_remove moves the last agent (state 7) into slot 0.
            assert_eq!(e.state(0), 7, "{name}");
            let fresh: Vec<u32> = (10..16).collect();
            e.set_states(&fresh);
            assert_eq!(e.len(), 6, "{name}");
            assert_eq!(e.snapshot(), fresh, "{name}");
        }
    }

    #[test]
    fn run_until_and_observed_through_the_trait() {
        for (name, mut e) in engines(8, 7) {
            let mut seen = Vec::new();
            e.run_observed(10, 4, &mut |t, counts| {
                seen.push(t);
                assert_eq!(counts.iter().sum::<u64>(), 8, "{name}");
            });
            assert_eq!(seen, vec![0, 4, 8, 10], "{name}");
            let hit = e.run_until(400_000, 64, &mut |counts, _| counts.contains(&8));
            assert!(hit.is_some(), "{name}: voter consensus not reached");
        }
    }

    #[test]
    #[should_panic(expected = "no canonical resize")]
    fn resize_on_fixed_family_panics() {
        let init: Vec<u32> = (0..8).collect();
        let csr = pp_graph::Csr::from_topology(&Cycle::new(8));
        let mut e = PackedSimulator::new(Copy1, csr, &init, 1);
        Engine::push_agent(&mut e, &0);
    }
}
