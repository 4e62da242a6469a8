//! Shared experiment plumbing.
//!
//! Engine selection lives here, and **only** here: [`build_engine`] /
//! [`build_graph_engine`] are the bench layer's single dispatch point from
//! [`EngineKind`] to a concrete simulator, returning a
//! `Box<dyn Engine<State = AgentState>>` every experiment drives through
//! the generic [`Engine`] surface. Adding an engine
//! tier (or a workload) no longer touches every experiment file.

use pp_core::{
    init, packed::config_stats_from_class_counts, region::GoodSet, AgentState, Diversification,
    Weights,
};
use pp_dense::DenseEngine;
use pp_engine::{
    Engine, PackedSimulator, ShardedSimulator, Simulator, TurboSimulator, VecSimulator,
};
use pp_graph::{Complete, Topology};

/// Experiment scale: `Quick` presets finish in seconds (used by
/// `cargo bench` and the test-suite), `Full` presets are the scales quoted
/// in EXPERIMENTS.md.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// Reduced population sizes and seed counts; same code paths.
    Quick,
    /// The scales recorded in EXPERIMENTS.md.
    Full,
}

impl Preset {
    /// Picks `quick` or `full` depending on the preset.
    pub fn pick<T>(self, quick: T, full: T) -> T {
        match self {
            Preset::Quick => quick,
            Preset::Full => full,
        }
    }

    /// Reads the preset from the process environment: `PP_PRESET=full`
    /// selects [`Preset::Full`], `PP_PRESET=quick` (or unset) is quick.
    ///
    /// # Panics
    ///
    /// Panics on any other value, matching [`EngineKind::from_env`]: a
    /// silently ignored typo (`PP_PRESET=ful`) would record quick-preset
    /// numbers as full-scale results.
    pub fn from_env() -> Self {
        match std::env::var("PP_PRESET") {
            Ok(v) if v.eq_ignore_ascii_case("full") => Preset::Full,
            Ok(v) if v.eq_ignore_ascii_case("quick") => Preset::Quick,
            Err(_) => Preset::Quick,
            Ok(v) => panic!("PP_PRESET must be `quick` or `full`, got `{v}`"),
        }
    }

    /// Short lowercase name for the result-JSON `preset` field.
    pub fn name(self) -> &'static str {
        match self {
            Preset::Quick => "quick",
            Preset::Full => "full",
        }
    }
}

/// Which simulation engine tier drives a measurement.
///
/// Complete-graph measurements default to the count-based dense engine
/// (distributionally equivalent to the per-agent engines there, and
/// orders of magnitude faster at large `n`); `PP_ENGINE` reroutes every
/// experiment onto any other tier through the same generic code path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// One `AgentState` per agent, one RNG draw per interaction — the
    /// generic reference engine.
    Agent,
    /// `k × 2` count matrix, τ-leaped batches of interactions
    /// (complete graph only).
    Dense,
    /// Monomorphized `u32` SoA fast path (`PackedSimulator`) — bit-exact
    /// twin of the agent engine under a shared seed.
    Packed,
    /// Per-agent `u8`/`u32` states with counter-based relaxed-equivalence
    /// randomness (`TurboSimulator`) — statistically, not bit-exactly,
    /// equivalent to the agent engine; verified by the `pp-stats`
    /// harness.
    Turbo,
    /// Graph-partitioned multi-core engine (`ShardedSimulator`): turbo's
    /// counter-based scheduling, node set split across per-core shards,
    /// boundary interactions merged deterministically between blocks.
    /// Statistical tier, verified by the `pp-stats` harness.
    Sharded,
    /// Lane-parallel ensemble engine (`VecSimulator`) at one lane:
    /// turbo's schedule walk plus per-lane partner/aux streams, bit-exact
    /// vs the turbo tier under a shared seed. Single-trajectory `Engine`
    /// workloads run it at `L = 1` (no wasted lanes); ensemble workloads
    /// reach the multi-lane step loop through
    /// [`replicate_vec`](pp_engine::replicate_vec).
    Vec,
}

impl EngineKind {
    /// Reads the engine from the environment: `PP_ENGINE` set to `agent`,
    /// `packed`, `turbo`, `sharded`, or `vec` forces that tier; `dense`
    /// (or unset) selects the dense engine — the default for
    /// complete-graph experiments.
    ///
    /// # Panics
    ///
    /// Panics on any other value: a silently ignored typo would record
    /// dense-vs-dense numbers as an engine comparison.
    pub fn from_env() -> Self {
        match std::env::var("PP_ENGINE") {
            Err(_) => EngineKind::Dense,
            Ok(v) => EngineKind::from_name(&v.to_ascii_lowercase()).unwrap_or_else(|| {
                let names = ALL_ENGINES.map(EngineKind::name).join(", ");
                panic!("PP_ENGINE must be one of {names}; got `{v}`")
            }),
        }
    }

    /// The tier whose [`name`](EngineKind::name) is exactly `name`, if any.
    pub fn from_name(name: &str) -> Option<Self> {
        ALL_ENGINES.into_iter().find(|kind| kind.name() == name)
    }

    /// The nearest tier with **per-agent identity**: [`Dense`] maps to
    /// [`Packed`] (its bit-exact per-agent sibling), everything else is
    /// itself.
    ///
    /// Two experiment classes need this: general-graph workloads (the
    /// count-based engine exists only on the complete graph) and
    /// per-agent instrumentation (fairness occupancy — the dense engine
    /// has no stable agent identity to track). Using the mapping instead
    /// of a panic keeps `PP_ENGINE` unset (= dense) working for every
    /// `t*` bin; reports note the tier that actually ran.
    ///
    /// [`Dense`]: EngineKind::Dense
    /// [`Packed`]: EngineKind::Packed
    pub fn per_agent(self) -> Self {
        match self {
            EngineKind::Dense => EngineKind::Packed,
            other => other,
        }
    }

    /// Short lowercase name for tables and notes.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Agent => "agent",
            EngineKind::Dense => "dense",
            EngineKind::Packed => "packed",
            EngineKind::Turbo => "turbo",
            EngineKind::Sharded => "sharded",
            EngineKind::Vec => "vec",
        }
    }
}

/// A boxed engine running Diversification — the currency of the generic
/// experiment path. `Send` so holders (notably the `pp serve` data
/// plane) may run slices of distinct engines on pool workers; every
/// tier is a plain owned value, so the bound costs nothing.
pub type DivEngine = Box<dyn Engine<State = AgentState> + Send>;

/// Builds a Diversification engine of the selected tier over an arbitrary
/// topology, from explicit initial states — the bench layer's **single**
/// engine-dispatch point.
///
/// # Panics
///
/// Panics for [`EngineKind::Dense`]: the count-based engine relies on
/// complete-graph mean-field symmetry that no display-name check can
/// establish for an arbitrary `T`, so only [`build_engine`] — which
/// constructs the `Complete` topology itself — builds it; general-graph
/// experiments map the dense default away first via
/// [`EngineKind::per_agent`]. Also panics if the state count does not
/// match the topology size.
pub fn build_graph_engine<T>(
    kind: EngineKind,
    weights: &Weights,
    topology: T,
    states: Vec<AgentState>,
    seed: u64,
) -> DivEngine
where
    T: Topology + Clone + Send + Sync + 'static,
{
    let k = weights.len();
    let protocol = Diversification::new(weights.clone());
    match kind {
        EngineKind::Agent => Box::new(Simulator::new(protocol, topology, states, seed)),
        EngineKind::Dense => {
            panic!(
                "the dense engine applies only on the complete graph, not `{}`; \
                 build it through build_engine, or map the kind away with \
                 EngineKind::per_agent() first",
                topology.name()
            );
        }
        EngineKind::Packed => Box::new(PackedSimulator::new(protocol, topology, &states, seed)),
        EngineKind::Turbo => {
            if pp_core::packed::fits_u8(k) {
                Box::new(TurboSimulator::<_, _, u8>::new(
                    protocol, topology, &states, seed,
                ))
            } else {
                Box::new(TurboSimulator::<_, _, u32>::new(
                    protocol, topology, &states, seed,
                ))
            }
        }
        EngineKind::Sharded => {
            if pp_core::packed::fits_u8(k) {
                Box::new(ShardedSimulator::<_, _, u8>::new(
                    protocol, topology, &states, seed,
                ))
            } else {
                Box::new(ShardedSimulator::<_, _, u32>::new(
                    protocol, topology, &states, seed,
                ))
            }
        }
        EngineKind::Vec => {
            // One lane, lane seed == master seed: bit-exact vs the turbo
            // tier, so single-trajectory workloads pay no lane overhead.
            if pp_core::packed::fits_u8(k) {
                Box::new(VecSimulator::<_, _, u8, 1>::from_seed(
                    protocol, topology, &states, seed,
                ))
            } else {
                Box::new(VecSimulator::<_, _, u32, 1>::from_seed(
                    protocol, topology, &states, seed,
                ))
            }
        }
    }
}

/// [`build_graph_engine`] on the complete graph — the builder behind every
/// complete-graph measurement (where all five tiers, including dense,
/// apply).
pub fn build_engine(
    kind: EngineKind,
    weights: &Weights,
    states: Vec<AgentState>,
    seed: u64,
) -> DivEngine {
    let n = states.len();
    match kind {
        EngineKind::Dense => Box::new(DenseEngine::from_states(
            Diversification::new(weights.clone()),
            &states,
            weights.len(),
            seed,
        )),
        other => build_graph_engine(other, weights, Complete::new(n), states, seed),
    }
}

/// Measures the convergence time of Theorem 1.3 with the engine selected by
/// [`EngineKind::from_env`]: the first time-step at which the configuration
/// (started from the adversarial single-minority configuration) enters
/// `E(δ)`, checked every `n/4` steps.
///
/// Returns `None` if the budget `max_steps` is exhausted first.
///
/// # Panics
///
/// Panics if `n < weights.len()`.
pub fn convergence_time(
    n: usize,
    weights: &Weights,
    delta: f64,
    seed: u64,
    max_steps: u64,
) -> Option<u64> {
    convergence_time_with(EngineKind::from_env(), n, weights, delta, seed, max_steps)
}

/// [`convergence_time`] with an explicit engine choice — one generic code
/// path for every tier.
pub fn convergence_time_with(
    engine: EngineKind,
    n: usize,
    weights: &Weights,
    delta: f64,
    seed: u64,
    max_steps: u64,
) -> Option<u64> {
    let good = GoodSet::new(weights.clone(), delta);
    let k = weights.len();
    let check = (n as u64 / 4).max(1);
    let states = init::all_dark_single_minority(n, weights);
    let mut sim = build_engine(engine, weights, states, seed);
    sim.run_until(max_steps, check, &mut |counts, _| {
        good.contains(&config_stats_from_class_counts(counts, k))
    })
}

/// Builds a simulator from the balanced all-dark start and runs it past the
/// Theorem 1.3 budget (`c·w²·n·ln n` with `c = 4`), returning it in its
/// (w.h.p.) converged state.
///
/// The concrete-type twin of [`converged_engine`], for experiments that
/// need the generic engine's own API (per-agent trajectories, protocol
/// access).
pub fn converged_simulator(
    n: usize,
    weights: &Weights,
    seed: u64,
) -> Simulator<Diversification, Complete> {
    let states = init::all_dark_balanced(n, weights);
    let mut sim = Simulator::new(
        Diversification::new(weights.clone()),
        Complete::new(n),
        states,
        seed,
    );
    let budget = pp_core::theory::convergence_budget(n, weights.total(), 4.0);
    sim.run(budget);
    sim
}

/// Balanced all-dark start on the selected tier, run past the Theorem 1.3
/// budget — the engine-generic counterpart of [`converged_simulator`].
pub fn converged_engine(kind: EngineKind, n: usize, weights: &Weights, seed: u64) -> DivEngine {
    let states = init::all_dark_balanced(n, weights);
    let mut sim = build_engine(kind, weights, states, seed);
    let budget = pp_core::theory::convergence_budget(n, weights.total(), 4.0);
    sim.run(budget);
    sim
}

/// The weight table used by most experiments: `k = 4`, weights `(1, 1, 2, 4)`
/// (total `w = 8`) — small enough for fast runs, skewed enough that weighted
/// fair shares differ visibly from uniform.
pub fn standard_weights() -> Weights {
    Weights::new(vec![1.0, 1.0, 2.0, 4.0]).expect("static table is valid")
}

/// Every engine tier, in the order reports list them.
pub const ALL_ENGINES: [EngineKind; 6] = [
    EngineKind::Agent,
    EngineKind::Dense,
    EngineKind::Packed,
    EngineKind::Turbo,
    EngineKind::Sharded,
    EngineKind::Vec,
];

#[cfg(test)]
mod tests {
    use super::*;
    use pp_core::ConfigStats;

    #[test]
    fn preset_pick() {
        assert_eq!(Preset::Quick.pick(1, 2), 1);
        assert_eq!(Preset::Full.pick(1, 2), 2);
    }

    #[test]
    fn per_agent_maps_only_dense() {
        assert_eq!(EngineKind::Dense.per_agent(), EngineKind::Packed);
        for kind in [
            EngineKind::Agent,
            EngineKind::Packed,
            EngineKind::Turbo,
            EngineKind::Sharded,
            EngineKind::Vec,
        ] {
            assert_eq!(kind.per_agent(), kind);
        }
    }

    #[test]
    fn convergence_time_is_finite_at_small_n() {
        let w = standard_weights();
        let budget = pp_core::theory::convergence_budget(256, w.total(), 50.0);
        for engine in ALL_ENGINES {
            let t = convergence_time_with(engine, 256, &w, 0.5, 7, budget);
            assert!(
                t.is_some(),
                "no convergence within 50·w²·n·ln n ({engine:?})"
            );
        }
    }

    #[test]
    fn engines_agree_on_convergence_scale() {
        // Medians over a few seeds land within a small factor of each other.
        let w = standard_weights();
        let n = 512;
        let budget = pp_core::theory::convergence_budget(n, w.total(), 64.0);
        let median = |engine: EngineKind| -> f64 {
            let mut times: Vec<f64> = (0..5)
                .map(|s| {
                    convergence_time_with(engine, n, &w, 0.4, 100 + s, budget)
                        .map(|t| t as f64)
                        .unwrap_or(budget as f64)
                })
                .collect();
            times.sort_by(f64::total_cmp);
            times[2]
        };
        let agent = median(EngineKind::Agent);
        let dense = median(EngineKind::Dense);
        let ratio = agent.max(dense) / agent.min(dense).max(1.0);
        assert!(ratio < 4.0, "agent {agent} vs dense {dense}");
    }

    #[test]
    fn agent_and_packed_builders_are_bit_exact_twins() {
        // The builder must not perturb the bit-exact tier pairing: same
        // seed through both kinds ⇒ identical class counts along the run.
        let w = standard_weights();
        let states = init::all_dark_balanced(128, &w);
        let mut a = build_engine(EngineKind::Agent, &w, states.clone(), 11);
        let mut p = build_engine(EngineKind::Packed, &w, states, 11);
        for _ in 0..5 {
            a.run(2_000);
            p.run(2_000);
            assert_eq!(a.class_counts(), p.class_counts());
        }
        assert_eq!(a.snapshot(), p.snapshot());
    }

    #[test]
    fn vec_and_turbo_builders_are_bit_exact_twins() {
        // The one-lane vec tier must reproduce the turbo trajectory under
        // a shared seed — through the builder, not just the raw engines.
        let w = standard_weights();
        let states = init::all_dark_balanced(128, &w);
        let topo = pp_graph::Cycle::new(128);
        let mut t = build_graph_engine(EngineKind::Turbo, &w, topo, states.clone(), 11);
        let mut v = build_graph_engine(EngineKind::Vec, &w, topo, states, 11);
        for _ in 0..5 {
            t.run(2_000);
            v.run(2_000);
            assert_eq!(t.snapshot(), v.snapshot());
        }
    }

    #[test]
    fn converged_simulator_is_near_fair_share() {
        let w = standard_weights();
        let sim = converged_simulator(512, &w, 3);
        let stats = ConfigStats::from_states(sim.population().states(), w.len());
        assert!(stats.max_diversity_error(&w) < 0.12);
    }

    #[test]
    fn converged_engine_is_near_fair_share_on_every_tier() {
        let w = standard_weights();
        for kind in ALL_ENGINES {
            let sim = converged_engine(kind, 512, &w, 3);
            let stats = config_stats_from_class_counts(&sim.class_counts(), w.len());
            assert!(
                stats.max_diversity_error(&w) < 0.12,
                "{kind:?} not near fair share"
            );
            assert!(stats.all_colours_alive(), "{kind:?} lost a colour");
        }
    }

    #[test]
    fn tiny_budget_times_out() {
        let w = standard_weights();
        for engine in ALL_ENGINES {
            assert_eq!(convergence_time_with(engine, 256, &w, 0.05, 7, 10), None);
        }
    }

    #[test]
    #[should_panic(expected = "only on the complete graph")]
    fn dense_rejects_general_graphs() {
        let w = standard_weights();
        let states = init::all_dark_balanced(64, &w);
        build_graph_engine(EngineKind::Dense, &w, pp_graph::Cycle::new(64), states, 1);
    }
}
