//! Experiment harness reproducing every quantitative claim of
//! *Diversity, Fairness, and Sustainability in Population Protocols*.
//!
//! The paper is a theory paper: its evaluation is a set of theorems plus the
//! Fig. 1 phase timeline. Each experiment here regenerates the quantitative
//! *shape* of one claim — scaling exponents, concentration widths,
//! crossovers against baselines — as a plain-text table. The experiment ids
//! match the experiment table at the top of EXPERIMENTS.md:
//!
//! | id | claim | module |
//! |----|-------|--------|
//! | `fig1_phases` | Fig. 1 timeline (τ₁, τ₂, τ₃) | [`experiments::fig1`] |
//! | `t1_convergence_n` | Thm 1.3, scaling in `n` | [`experiments::convergence`] |
//! | `t2_convergence_w` | Thm 1.3, scaling in `w` | [`experiments::convergence`] |
//! | `t3_diversity_error` | Eq. (1), `Õ(1/√n)` | [`experiments::diversity`] |
//! | `t4_phase3_error` | Thm 2.13, `n^{3/4} log^{1/4} n` | [`experiments::phase3`] |
//! | `t5_fairness` | Thm 2.12 | [`experiments::fairness`] |
//! | `t6_sustainability` | Def 1.1(3) + robustness | [`experiments::sustainability`] |
//! | `t7_baselines` | consensus kills diversity | [`experiments::baselines`] |
//! | `t8_derandomised` | §1.2 open problem | [`experiments::derandomised`] |
//! | `t9_markov` | §2.4 chain approximation | [`experiments::markov`] |
//! | `t10_topologies` | future work: other graphs | [`experiments::topologies`] |
//! | `t11_lower_bound` | Ω(n log n) broadcast | [`experiments::lower_bound`] |
//! | `t12_uniform_partition` | `w_i = 1` special case | [`experiments::uniform_partition`] |
//! | `t13_stability` | Thm 2.5 stability window | [`experiments::stability`] |
//! | `t14_adversary` | robustness × engine-tier grid | [`experiments::adversary`] |
//! | `t15_sbm_blocks` | diversity within SBM communities | [`experiments::sbm`] |
//! | `ablations` | design-choice knockouts | [`experiments::ablations`] |
//! | `drift_lemmas` | Lemmas 2.9/2.10/4.1 contraction | [`experiments::drift`] |
//! | `throughput` | steps/s of every engine tier, in seven parts | [`throughput`] |
//!
//! Every experiment takes a [`Preset`] so the same code runs as a fast smoke
//! (`Preset::Quick`, used by `cargo bench` and tests) or at full scale
//! (`Preset::Full`, used by the `t*` binaries). Each binary also writes its
//! report to `BENCH_<name>.json` via [`output`].
//!
//! Measurements are driven by the engine selected through [`EngineKind`]
//! and built at exactly one dispatch point
//! ([`runner::build_engine`] / [`runner::build_graph_engine`]); every
//! experiment then drives a `Box<dyn pp_engine::Engine>` generically.
//! Complete-graph experiments default to the count-based `pp-dense`
//! engine (orders of magnitude faster at large `n`; see EXPERIMENTS.md
//! for the measured speedup table); `PP_ENGINE` selects `agent`,
//! `packed`, `turbo`, `sharded`, or `vec` for any experiment, including
//! the adversarial ones.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod output;
pub mod runner;
pub mod schema;
pub mod throughput;

pub use runner::{
    build_engine, build_graph_engine, converged_engine, converged_simulator, convergence_time,
    convergence_time_with, DivEngine, EngineKind, Preset,
};
