//! **population-diversity** — a reproduction of
//! *Diversity, Fairness, and Sustainability in Population Protocols*
//! (Nan Kang, Frederik Mallmann-Trenn, Nicolás Rivera; PODC 2021,
//! arXiv:2105.09926).
//!
//! The paper proposes the **Diversification** protocol: `n` anonymous
//! agents, each holding one of `k` weighted colours plus a single
//! confidence bit, converge to — and indefinitely sustain — a population
//! split proportional to the colour weights, with each agent spending its
//! time fairly across colours and no colour ever going extinct.
//!
//! This crate is an umbrella over the workspace:
//!
//! * [`core`] (`pp-core`) — the protocol, its derandomised variant,
//!   potentials, regions, and property checkers;
//! * [`engine`] (`pp-engine`) — the agent-based population-protocol
//!   simulator (any topology, per-agent measurements);
//! * [`dense`] (`pp-dense`) — the count-based batched engine for the
//!   complete graph (τ-leaped interaction batches over the `k × 2` count
//!   matrix; scales to `n = 10⁸`);
//! * [`graph`] (`pp-graph`) — interaction topologies;
//! * [`markov`] (`pp-markov`) — the §2.4 Markov-chain machinery;
//! * [`baselines`] (`pp-baselines`) — Voter, 2-Choices, 3-Majority,
//!   Anti-Voter, averaging, and ablations;
//! * [`adversary`] (`pp-adversary`) — structural shocks and recovery
//!   measurement;
//! * [`stats`] (`pp-stats`) — the numerical substrate.
//!
//! Three more crates sit above the umbrella and are used as binaries
//! rather than libraries: `pp-bench` (the `t*` experiment bins, the
//! result-JSON v1 writer/validator, and the engine dispatch point),
//! `pp-check` (the fail-closed bounded model checker), and `pp-serve`
//! (the multi-tenant simulation service with snapshot/resume). See
//! `ARCHITECTURE.md` for the full crate map and wire formats.
//!
//! # Six engine tiers, one dispatch point
//!
//! The workspace ships six behaviour-equivalent simulators. Every tier
//! implements the object-safe [`Engine`](pp_engine::Engine) trait —
//! clock, class-count observation, structural mutation, and versioned
//! [`save_snapshot`](pp_engine::Engine::save_snapshot)/
//! [`restore_snapshot`](pp_engine::Engine::restore_snapshot) — and
//! everything above the engines (experiments, the adversary suite, the
//! serve loop) holds a `Box<dyn Engine<State = AgentState>>` built at
//! **one** dispatch point: `pp_bench::runner::build_engine` /
//! `build_graph_engine`, selected by `EngineKind` (env: `PP_ENGINE`).
//! The per-interaction hot loops stay monomorphized inside each engine;
//! the `dyn` dispatch happens once per `run` call, not per step.
//!
//! Two equivalence contracts tie the tiers together (details and the
//! verification grid in `EXPERIMENTS.md`):
//!
//! * **Bit-exact** — identical trajectories under a shared seed. The
//!   generic [`Simulator`](pp_engine::Simulator) (`agent`) is the
//!   reference; [`PackedSimulator`](pp_engine::PackedSimulator)
//!   (`packed`) matches it draw for draw over `u32` packed states; and
//!   [`VecSimulator`](pp_engine::VecSimulator) (`vec`) matches
//!   [`TurboSimulator`](pp_engine::TurboSimulator) on lane 0.
//! * **Statistical** — same process distribution, verified by the
//!   [`pp_stats::equivalence`] harness
//!   (chi-square / KS / moment batteries under one Bonferroni budget):
//!   [`TurboSimulator`](pp_engine::TurboSimulator) (`turbo`,
//!   counter-based per-step randomness, branch- and rejection-free),
//!   [`ShardedSimulator`](pp_engine::ShardedSimulator) (`sharded`,
//!   parallel shards with deterministic block reconciliation — a
//!   trajectory depends on `(seed, shards, block)`, never thread
//!   count), and the count-based
//!   [`DenseSimulator`](pp_dense::DenseSimulator) (`dense`), which
//!   applies only on the complete graph, advancing the
//!   `(colour, shade)` count matrix in τ-leaped batches,
//!   `O(k²/(ε·n))` amortised per step — use it for complete-graph
//!   count-level measurements at scale:
//!
//! ```
//! use population_diversity::prelude::*;
//!
//! let weights = Weights::new(vec![1.0, 1.0, 2.0])?;
//! let n: u64 = 1_000_000;
//! let mut sim = DenseSimulator::new(
//!     Diversification::new(weights.clone()),
//!     CountConfig::all_dark_balanced(n, 3).to_classes(),
//!     42,
//! );
//! sim.run(30 * n);
//! let stats = CountConfig::from_classes(sim.counts()).stats();
//! assert!(stats.max_diversity_error(&weights) < 0.01);
//! assert!(stats.all_colours_alive());
//! # Ok::<(), population_diversity::core::WeightsError>(())
//! ```
//!
//! # Quickstart
//!
//! ```
//! use population_diversity::prelude::*;
//!
//! // Three tasks; the third is twice as important.
//! let weights = Weights::new(vec![1.0, 1.0, 2.0])?;
//! let n = 400;
//! let states = init::all_dark_balanced(n, &weights);
//! let mut sim = Simulator::new(
//!     Diversification::new(weights.clone()),
//!     Complete::new(n),
//!     states,
//!     42,
//! );
//! sim.run(200_000);
//!
//! let stats = ConfigStats::from_states(sim.population().states(), weights.len());
//! assert!(stats.max_diversity_error(&weights) < 0.15);
//! assert!(stats.all_colours_alive());
//! # Ok::<(), population_diversity::core::WeightsError>(())
//! ```
//!
//! See the `examples/` directory for runnable scenarios (ant task
//! allocation, portfolio diversification, consensus-vs-diversity) and
//! EXPERIMENTS.md for the paper-vs-measured record.
//!
//! # Environment variables
//!
//! Every knob in the workspace, in one place. All parsers are
//! fail-fast: an unrecognized value panics with the accepted set
//! rather than silently falling back.
//!
//! | variable | read by | effect |
//! |---|---|---|
//! | `PP_ENGINE` | `pp-bench` dispatch (`EngineKind::from_env`) | selects the tier for every experiment bin: `agent`, `packed`, `turbo`, `sharded`, `vec`, or `dense` (default for complete-graph experiments; per-agent workloads map it to `packed`) |
//! | `PP_PRESET` | `pp-bench` bins | `quick` (default, seconds) or `full` (paper scales) |
//! | `PP_POOL_THREADS` | `pp-engine` worker pool | caps the shared thread pool the sharded tier, `replicate` and `pp-serve`'s round workers use (default: available parallelism) |
//! | `PP_OBS` | `pp-obs` (`init_from_env`) | recorder sink: unset/`off`, `table` (stderr table at exit), `json` (dump embedded in the result envelope), `jsonl` (events streamed to stderr); the recorder is compiled into every build, so any binary records when this is set |
//! | `PP_BENCH_DIR` | `pp-bench` output writer | directory for `BENCH_<name>.json` envelopes (created if missing; default: working directory) |
//! | `PP_CHECK_INJECT` | `pp-check` | `1` switches in the deliberately-bugged protocol — the model-check gate must fail closed (exit 3) |
//! | `PP_PERF_ASSERT` | `pp-bench` throughput tests | any value opts the release-build test suite into asserting engine speed *ratios* (packed ≥ agent etc.), not just progress |
//! | `PP_SERVE_QUANTUM` | `pp-serve` | deficit-round-robin slice quantum in steps (default 2048) — smaller interleaves tenants more finely |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use pp_adversary as adversary;
pub use pp_baselines as baselines;
pub use pp_core as core;
pub use pp_dense as dense;
pub use pp_engine as engine;
pub use pp_graph as graph;
pub use pp_markov as markov;
pub use pp_stats as stats;

/// The most common imports, re-exported flat.
pub mod prelude {
    pub use pp_adversary::{apply, recovery_time, Schedule, Shock};
    pub use pp_core::{
        init, phi, psi, region::GoodSet, sigma_sq, AgentState, Colour, ConfigStats,
        DerandomisedDiversification, Diversification, DiversityChecker, FairnessTracker,
        IntWeights, Shade, SustainabilityChecker, Weights,
    };
    pub use pp_dense::{CountConfig, CountProtocol, DenseSimulator};
    pub use pp_engine::{
        replicate, sweep_grid, Engine, PackedProtocol, PackedSimulator, Population, Protocol,
        Simulator, TurboSimulator,
    };
    pub use pp_graph::{Complete, Csr, Cycle, Topology, Torus2d};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_compiles_and_links() {
        use crate::prelude::*;
        let w = Weights::uniform(2);
        assert_eq!(w.len(), 2);
        let g = Complete::new(4);
        assert_eq!(g.len(), 4);
    }
}
