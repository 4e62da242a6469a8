//! Experiment harness reproducing every quantitative claim of
//! *Diversity, Fairness, and Sustainability in Population Protocols*.
//!
//! The paper is a theory paper: its evaluation is a set of theorems plus the
//! Fig. 1 phase timeline. Each experiment here regenerates the quantitative
//! *shape* of one claim — scaling exponents, concentration widths,
//! crossovers against baselines — as a plain-text table.
//!
//! [`experiments::ALL`] is the one list of experiments, in the order of the
//! experiment table at the top of EXPERIMENTS.md, which names the claim
//! each one checks. An entry's id is its bin name and its
//! `BENCH_<id>.json` stem; its `run` names the module and the base seed.
//! Every bin but `validate_bench` is a one-line call to
//! [`experiments::main`], and the `paper_experiments` bench runs the
//! whole list.
//!
//! Every experiment takes a [`Preset`] so the same code runs as a fast smoke
//! (`Preset::Quick`, used by `cargo bench` and tests) or at full scale
//! (`Preset::Full`, selected by `PP_PRESET=full`). Each bin also writes its
//! report to `BENCH_<id>.json` via [`output`].
//!
//! Measurements are driven by the engine selected through [`EngineKind`]
//! and built at exactly one dispatch point
//! ([`runner::build_engine`] / [`runner::build_graph_engine`]); every
//! experiment then drives a `Box<dyn pp_engine::Engine>` generically.
//! Complete-graph experiments default to the count-based `pp-dense`
//! engine (orders of magnitude faster at large `n`; see EXPERIMENTS.md
//! for the measured speedup table); `PP_ENGINE` selects `agent`,
//! `packed`, `turbo`, `sharded`, or `vec` for every experiment that reads
//! its tier from it. Each report's `engine` names the tier its rows ran
//! on, or `multi`.

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
