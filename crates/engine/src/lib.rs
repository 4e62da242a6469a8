//! Population-protocol simulation engine.
//!
//! This crate is the substrate every protocol in the workspace runs on. It
//! implements the paper's interaction model exactly: at each discrete
//! **time-step** a uniformly random agent `u` is scheduled, observes the
//! state of one (or, for multi-sample baselines like 2-Choices, several)
//! uniformly random interaction partner(s), and updates its own state
//! according to the protocol's transition rule. Only the scheduled agent
//! changes state — a property several of the paper's arguments (notably
//! sustainability) rely on.
//!
//! * [`Protocol`] — the transition rule, implemented by `pp-core`
//!   (Diversification) and `pp-baselines` (Voter, 2-Choices, …).
//! * [`Population`] — the vector of agent states.
//! * [`Simulator`] — the sequential uniform random scheduler, seeded and
//!   fully deterministic given `(protocol, topology, initial states, seed)`.
//! * [`PackedProtocol`] + [`PackedSimulator`] — the monomorphized
//!   packed-state fast path: `u32` SoA states, zero `dyn` dispatch per
//!   interaction, trajectory-identical to [`Simulator`] under a shared
//!   seed.
//! * [`TurboSimulator`] — the counter-based relaxed-equivalence turbo
//!   engine: per-step `CounterRng` streams resolved in prefetchable
//!   batches, optional `u8` state storage ([`TurboWord`]); same process
//!   distribution as the exact engines, verified statistically by the
//!   `pp-stats` harness instead of draw-for-draw.
//! * [`ShardedSimulator`] — one run split over graph-partitioned shards
//!   that step in parallel: an exact multinomial count-split per block,
//!   cross-shard reads deferred to a block-boundary merge or served from
//!   a block-start snapshot ([`ReadMode`]). Turbo and sharded run the
//!   same counter-RNG step loop, written once in a crate-private kernel.
//! * [`VecSimulator`] — the lane-parallel ensemble engine: `L` replicas
//!   of one `(topology, protocol)` stepped in lockstep over lane-major
//!   SoA state, with a shared schedule walk and per-lane partner/aux
//!   streams; one lane is bit-exact vs [`TurboSimulator`] under a shared
//!   seed.
//! * [`replicate()`](replicate()) — parallel independent-seed replication for w.h.p.-style
//!   statements, scheduled by work-stealing.
//! * [`replicate_vec()`](replicate_vec()) — the ensemble front-end: packs a seed list
//!   into `L`-lane [`VecSimulator`] groups (scalar fallback for
//!   remainders) and stays byte-identical per seed.
//! * [`sweep_grid()`](sweep_grid()) — (job × seed) grids through one shared
//!   work-stealing pool.
//! * [`rounds`] — conversions between time-steps and "parallel rounds"
//!   (`1 round = n steps`).
//!
//! Every tier but the generic [`Simulator`] is driven only through the
//! [`Engine`] trait (`run`, `state`, `set_states`, snapshots, …); the
//! simulator types add just their constructors, layout settings and raw
//! state views.
//!
//! # Examples
//!
//! ```
//! use pp_engine::{Population, Protocol, Simulator};
//! use pp_graph::Complete;
//! use rand::Rng;
//!
//! /// A toy protocol: adopt whatever the observed agent holds.
//! #[derive(Debug)]
//! struct Copycat;
//!
//! impl Protocol for Copycat {
//!     type State = u8;
//!     fn transition(&self, _me: &u8, observed: &[&u8], _rng: &mut dyn Rng) -> u8 {
//!         *observed[0]
//!     }
//!     fn name(&self) -> String {
//!         "copycat".into()
//!     }
//! }
//!
//! let states = vec![0u8, 1, 1, 1];
//! let mut sim = Simulator::new(Copycat, Complete::new(4), states, 42);
//! sim.run(1_000);
//! // Copycat is the Voter model; by now it has almost surely hit consensus.
//! let c = sim.population().count_matching(|&s| s == 1);
//! assert!(c == 0 || c == 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
mod kernel;
pub mod packed;
pub mod pool;
pub mod population;
pub mod protocol;
pub mod replicate;
pub mod rounds;
pub mod sharded;
pub mod simulator;
pub mod snapshot;
pub mod sweep;
pub mod turbo;
pub mod vec;

pub use engine::Engine;
pub use kernel::TurboWord;
pub use packed::{PackedProtocol, PackedSimulator, MAX_PACKED_OBSERVATIONS};
pub use population::Population;
pub use protocol::Protocol;
pub use replicate::{replicate, replicate_vec};
pub use sharded::{ReadMode, ShardedSimulator};
pub use simulator::Simulator;
pub use snapshot::{EngineSnapshot, SnapshotError};
pub use sweep::sweep_grid;
pub use turbo::TurboSimulator;
pub use vec::VecSimulator;
