//! `pp serve`: a multi-tenant simulation service with snapshot/resume.
//!
//! The rest of the workspace runs one experiment per process: a bin parses
//! its environment, builds an engine, runs it to completion, and writes a
//! result-JSON v1 envelope. This crate turns that batch model into a
//! **service**: a long-running process that accepts protocol/topology/
//! adversary job specs as line-delimited JSON requests on stdin, runs each
//! tenant's jobs as bounded step-slices on any engine tier through the
//! uniform `Box<dyn Engine>` dispatch, and streams live class-count
//! observations as JSON events on stdout. Everything is hand-rolled on
//! the same `pp_bench::schema` parser the envelopes use — no new
//! dependencies, no async runtime, one OS thread per concern.
//!
//! The crate splits into four small modules:
//!
//! * [`wire`] — the request/event formats (`pp-serve-request-v1`,
//!   `pp-serve-event-v1`): fail-closed parsing with unknown fields
//!   rejected, plus exact-round-trip rendering.
//! * [`snapshot`] — the `pp-snapshot-v1` file format wrapping
//!   [`EngineSnapshot`](pp_engine::EngineSnapshot): self-validating
//!   (schema-checked, checksummed), with `u64` values carried as hex
//!   strings so nothing is squeezed through an `f64`.
//! * [`sched`] — deficit-round-robin slice scheduling across tenants,
//!   with tested starvation-freedom and bounded carried deficit.
//! * [`server`] — the event loop tying them together.
//!
//! See `ARCHITECTURE.md` at the repository root for the complete wire
//! format reference with worked examples (each example is compiled
//! against these parsers by `tests/architecture_examples.rs`), and the
//! "Service" section of `EXPERIMENTS.md` for shell-level usage.
//!
//! # Determinism contract
//!
//! A job is fully determined by `(spec, seed)`; a snapshot captures the
//! engine's exact `(states, rng clocks, aux)` mid-run. Resuming on the
//! agent, packed, turbo, sharded, and vec tiers is **bit-exact**: the
//! resumed trajectory equals the uninterrupted one state-for-state (these
//! tiers are slicing-invariant — `run(a); run(b)` ≡ `run(a+b)`). The
//! dense tier's τ-leaping sizes batches from each `run` call's budget, so
//! a dense resume is exact in distribution but not bit-exact against a
//! differently-sliced run; `tests/engine_snapshot.rs` at the workspace
//! root pins both halves of this contract.
//!
//! # Example
//!
//! Drive a tiny single-tenant session entirely in memory:
//!
//! ```
//! use std::io::Cursor;
//! # std::env::set_var("PP_BENCH_DIR", std::env::temp_dir().join("pp_serve_doctest"));
//!
//! let requests = concat!(
//!     "{\"schema_version\":1,\"op\":\"submit\",\"tenant\":\"t\",\"job\":\"demo\",",
//!     "\"spec\":{\"protocol\":\"diversification\",\"weights\":[1.0,1.0,2.0],",
//!     "\"topology\":\"cycle\",\"n\":24,\"engine\":\"packed\",\"seed\":7,",
//!     "\"steps\":1000,\"observe_every\":400,\"init\":\"balanced\",\"shock\":null}}\n",
//!     "{\"schema_version\":1,\"op\":\"shutdown\"}\n",
//! );
//! let mut events = Vec::new();
//! let code = pp_serve::server::run(
//!     Cursor::new(requests),
//!     &mut events,
//!     pp_serve::server::Config::default(),
//! );
//! assert_eq!(code, 0);
//! let text = String::from_utf8(events).unwrap();
//! assert!(text.contains("\"event\":\"accepted\""));
//! assert!(text.contains("\"event\":\"done\""));
//! for line in text.lines() {
//!     let doc = pp_bench::schema::parse(line).unwrap();
//!     pp_serve::wire::validate_event(&doc).unwrap();
//! }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod sched;
pub mod server;
pub mod snapshot;
pub mod wire;

pub use sched::Drr;
pub use server::{run, Config};
pub use snapshot::SnapshotFile;
pub use wire::{Event, JobSpec, Request};
