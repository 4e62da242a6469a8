//! Engine throughput comparison across the engine tiers: generic agent
//! engine, packed general-graph fast path, turbo counter-based engine,
//! graph-partitioned sharded engine, count-based dense engine.
//!
//! Part 1 runs the Diversification protocol on the complete graph with the
//! generic and dense engines across population sizes. The dense engine's
//! amortised cost per step is `O(k²/(ε·n))`, so its advantage *grows* with
//! `n`; the `n = 10⁸` row is dense-only (10⁸ agent states would need ~1 GB
//! and hours of stepping — the point of the dense engine is that this row
//! completes in seconds).
//!
//! Part 2 measures the general-graph engines: the generic engine exactly
//! as the topology experiments used it (`Box<dyn Topology>` dispatch per
//! partner draw) versus [`PackedSimulator`] (bit-exact fast path) versus
//! [`TurboSimulator`] (counter-based relaxed-equivalence engine, `u8`
//! states) versus [`ShardedSimulator`] (graph-partitioned multi-core) on
//! ring, torus, and random-regular graphs at `n = 10⁵`.
//!
//! Part 3 is the multi-core acceptance row: turbo vs sharded at
//! `n = 10⁶` on the torus, with the sharded/turbo ratio and the core
//! count recorded in the notes (the CI jobs surface it per runner).
//!
//! Part 4 is the adversary fast path: churn-driven runs through the
//! generic `Engine` surface on the packed, turbo, and sharded tiers —
//! the workload the `Engine` refactor moved off the generic engine. The
//! churn overhead should be noise (one reset per `n/10` steps), so these
//! rows certify that adversarial workloads keep each tier's step rate.
//!
//! Part 5 is the recorder-overhead probe: the per-call cost of a
//! *disabled* `obs_count!` macro, reported in the `ns/call` column (its
//! `Msteps/s` cell is `-` — a nanosecond-scale guard branch is not a
//! simulation step rate, and the row is excluded from the regression
//! gates by name).
//!
//! Part 6 is the ensemble tier: a fixed workload of `R = 32` independent
//! replicas at `n = 10⁵` on the torus, run once through the work-stealing
//! scalar path (`replicate` + [`TurboSimulator`], one engine per seed)
//! and once through the lane-parallel path
//! ([`replicate_vec`] + `VecSimulator`, 32
//! seeds per step loop). Both rows report **replica-steps** per second —
//! equal simulated work, so the ratio is the ensemble speedup the vec
//! tier buys.
//!
//! Part 7 is the count-split scaling ladder: one fixed sharded workload
//! (torus at `n = 10⁶`, 8 shards, the default block for that size) run
//! at `P = 1, 2, 4, 8` worker threads through
//! [`ShardedSimulator::run_with_threads`]. The layout is pinned so every
//! row simulates the *identical* trajectory — the count-split scheduler
//! makes granted step counts a function of `(seed, block)` only — and
//! the rows differ purely in wall clock. The notes record the `p2/p1`
//! and `p4/p1` scaling plus the `p1/turbo` ratio (the serial-overhead
//! acceptance: `p1 ≥ 0.95× turbo`).

use crate::experiments::Report;
use crate::runner::{build_graph_engine, standard_weights, EngineKind, Preset};
use pp_adversary::Churn;
use pp_core::{init, Diversification};
use pp_dense::{CountConfig, DenseSimulator};
use pp_engine::{
    pool, replicate, replicate_vec, PackedSimulator, ShardedSimulator, Simulator, TurboSimulator,
};
use pp_graph::{random_regular, Complete, Cycle, Topology, Torus2d};
use pp_stats::{table::fmt_f64, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// One engine measurement.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Time-steps simulated.
    pub steps: u64,
    /// Wall-clock seconds.
    pub seconds: f64,
}

impl Measurement {
    /// Simulated time-steps per wall-clock second.
    pub fn steps_per_second(&self) -> f64 {
        if self.seconds > 0.0 {
            self.steps as f64 / self.seconds
        } else {
            f64::INFINITY
        }
    }
}

/// Shared wall-clock measurement loop: calls `run(batch)` until
/// `budget_secs` elapses, tallying the simulated steps. Every engine
/// measurement in this module funnels through here so methodology changes
/// (batch size, warm-up, clock) apply to all comparisons at once.
fn measure_loop(batch: u64, budget_secs: f64, mut run: impl FnMut(u64)) -> Measurement {
    let start = Instant::now();
    let mut steps = 0u64;
    while start.elapsed().as_secs_f64() < budget_secs {
        run(batch);
        steps += batch;
    }
    Measurement {
        steps,
        seconds: start.elapsed().as_secs_f64(),
    }
}

/// Times the agent-based engine: balanced all-dark start, chunks of `n`
/// steps until `budget_secs` of wall clock is spent.
pub fn measure_agent(n: usize, seed: u64, budget_secs: f64) -> Measurement {
    let weights = standard_weights();
    let states = init::all_dark_balanced(n, &weights);
    let mut sim = Simulator::new(
        Diversification::new(weights),
        Complete::new(n),
        states,
        seed,
    );
    measure_loop(n as u64, budget_secs, |b| sim.run(b))
}

/// Times the dense engine over a fixed workload of `rounds·n` steps from
/// the balanced all-dark start (covering both the all-dark transient and
/// the equilibrium regime).
pub fn measure_dense(
    n: u64,
    seed: u64,
    rounds: u64,
) -> (Measurement, DenseSimulator<Diversification>) {
    let weights = standard_weights();
    let config = CountConfig::all_dark_balanced(n, weights.len());
    let mut sim = DenseSimulator::new(Diversification::new(weights), config.to_classes(), seed);
    let steps = rounds * n;
    let start = Instant::now();
    sim.run(steps);
    (
        Measurement {
            steps,
            seconds: start.elapsed().as_secs_f64(),
        },
        sim,
    )
}

/// Times the generic engine on an arbitrary topology exactly as the
/// topology experiments used it before the fast path existed: boxed
/// `dyn Topology`, one virtual partner draw per interaction.
pub fn measure_agent_graph(
    topology: Box<dyn Topology>,
    seed: u64,
    budget_secs: f64,
) -> Measurement {
    let weights = standard_weights();
    let n = topology.len();
    let states = init::all_dark_balanced(n, &weights);
    let mut sim = Simulator::new(Diversification::new(weights), topology, states, seed);
    measure_loop(n as u64, budget_secs, |b| sim.run(b))
}

/// Times the packed fast path on the same workload: monomorphized
/// topology, `u32` packed states, zero `dyn` dispatch per interaction.
pub fn measure_packed_graph<T: Topology>(topology: T, seed: u64, budget_secs: f64) -> Measurement {
    let weights = standard_weights();
    let n = topology.len();
    let states = init::all_dark_balanced(n, &weights);
    let mut sim = PackedSimulator::new(Diversification::new(weights), topology, &states, seed);
    measure_loop(n as u64, budget_secs, |b| sim.run(b))
}

/// Times the relaxed-equivalence turbo engine on the same workload:
/// counter-based per-step randomness, branch-free partner draws and
/// transitions, `u8` state storage (`k = 4` fits a byte).
pub fn measure_turbo_graph<T: Topology>(topology: T, seed: u64, budget_secs: f64) -> Measurement {
    let weights = standard_weights();
    let n = topology.len();
    let states = init::all_dark_balanced(n, &weights);
    let mut sim =
        TurboSimulator::<_, _, u8>::new(Diversification::new(weights), topology, &states, seed);
    measure_loop(n as u64, budget_secs, |b| sim.run(b))
}

/// Times the graph-partitioned sharded engine on the same workload:
/// default shard/block layout (one shard per core, capped by population),
/// worker threads from the shared pool budget, `u8` state storage.
pub fn measure_sharded_graph<T: Topology>(topology: T, seed: u64, budget_secs: f64) -> Measurement {
    let weights = standard_weights();
    let n = topology.len();
    let states = init::all_dark_balanced(n, &weights);
    let mut sim =
        ShardedSimulator::<_, _, u8>::new(Diversification::new(weights), topology, &states, seed);
    measure_loop(n as u64, budget_secs, |b| sim.run(b))
}

/// One general-graph engine comparison: generic-dyn vs packed vs turbo vs
/// sharded on the same topology. Returns
/// `(agent, packed, turbo, sharded)`.
#[allow(clippy::type_complexity)]
pub fn measure_graph_quartet<T: Topology + Clone + 'static>(
    topology: T,
    seed: u64,
    budget_secs: f64,
) -> (Measurement, Measurement, Measurement, Measurement) {
    let agent = measure_agent_graph(Box::new(topology.clone()), seed, budget_secs);
    let packed = measure_packed_graph(topology.clone(), seed, budget_secs);
    let turbo = measure_turbo_graph(topology.clone(), seed, budget_secs);
    let sharded = measure_sharded_graph(topology, seed, budget_secs);
    (agent, packed, turbo, sharded)
}

/// Runs the general-graph engine comparison at `n = 10⁵`: ring, torus,
/// and random-regular (CSR), generic-dyn vs packed vs turbo vs sharded.
/// Returns `(name, agent, packed, turbo, sharded)` rows.
#[allow(clippy::type_complexity)]
pub fn run_graph_suite(
    seed: u64,
    budget_secs: f64,
) -> Vec<(String, Measurement, Measurement, Measurement, Measurement)> {
    let n = 100_000;
    let mut rng = StdRng::seed_from_u64(seed);
    let regular = random_regular(n, 8, &mut rng);
    let mut out = Vec::new();
    let (a, p, t, s) = measure_graph_quartet(Cycle::new(n), seed, budget_secs);
    out.push(("ring".to_string(), a, p, t, s));
    let (a, p, t, s) = measure_graph_quartet(Torus2d::new(250, 400), seed, budget_secs);
    out.push(("torus".to_string(), a, p, t, s));
    // The generic baseline runs the builder representation (`Vec<Vec>`
    // adjacency) t10 used before this fast path existed; the fast tiers
    // run its CSR lowering.
    let agent = measure_agent_graph(Box::new(regular.clone()), seed, budget_secs);
    let csr = regular.to_csr();
    let packed = measure_packed_graph(csr.clone(), seed, budget_secs);
    let turbo = measure_turbo_graph(csr.clone(), seed, budget_secs);
    let sharded = measure_sharded_graph(csr, seed, budget_secs);
    out.push((
        "random-regular(d=8)".to_string(),
        agent,
        packed,
        turbo,
        sharded,
    ));
    out
}

/// The turbo-vs-sharded comparison at `n = 10⁶` on the torus — the scale
/// of the multi-core acceptance target (`sharded ≥ 1.5× turbo on ≥ 2
/// cores`; single-core fallback within 0.9× of turbo). Returns
/// `(turbo, sharded)`.
pub fn run_sharded_scale(seed: u64, budget_secs: f64) -> (Measurement, Measurement) {
    let topology = Torus2d::new(1_000, 1_000);
    let turbo = measure_turbo_graph(topology, seed, budget_secs);
    let sharded = measure_sharded_graph(topology, seed, budget_secs);
    (turbo, sharded)
}

/// Shard count of the Part-7 scaling ladder — the top of its thread
/// range, so the `p8` row runs one thread per shard.
pub const SCALING_SHARDS: usize = 8;

/// Block length of the Part-7 ladder: the default block the sharded
/// tier picks at `n = 10⁶` (`(n/16).clamp(256, 16384)`), pinned here so
/// the ladder's trajectory stays fixed if the default moves.
pub const SCALING_BLOCK: u64 = 16_384;

/// Times the sharded engine on the Part-7 ladder workload (torus at
/// `n = 10⁶`, [`SCALING_SHARDS`] shards, [`SCALING_BLOCK`] block) with
/// an explicit worker-thread count, bypassing the shared pool budget.
/// Every thread count simulates the same trajectory — the count-split
/// schedule is a function of `(seed, block index)` alone — so the rows
/// measure scheduling overhead and parallel speedup, nothing else.
pub fn measure_sharded_scaling(threads: usize, seed: u64, budget_secs: f64) -> Measurement {
    let weights = standard_weights();
    let topology = Torus2d::new(1_000, 1_000);
    let n = topology.len();
    let states = init::all_dark_balanced(n, &weights);
    let mut sim =
        ShardedSimulator::<_, _, u8>::new(Diversification::new(weights), topology, &states, seed)
            .with_layout(SCALING_SHARDS, SCALING_BLOCK);
    measure_loop(n as u64, budget_secs, |b| sim.run_with_threads(b, threads))
}

/// Times a churn-driven run through the generic `Engine` path: the
/// Diversification protocol on the `n = 10⁵` torus, one uniformly random
/// agent reset per `n/10` steps, on the tier selected by `kind`.
///
/// This is the adversary-on-the-fast-path measurement: the churn loop
/// (`pp_adversary::Churn::run`) is engine-generic, so the only per-tier
/// code is the constructor.
pub fn measure_churn_graph(kind: EngineKind, seed: u64, budget_secs: f64) -> Measurement {
    let weights = standard_weights();
    let n = 100_000usize;
    let states = init::all_dark_balanced(n, &weights);
    let mut sim = build_graph_engine(kind, &weights, Torus2d::new(250, 400), states, seed);
    let churn = Churn::new(n as u64 / 10, weights.len());
    let mut rng = StdRng::seed_from_u64(seed);
    let start = Instant::now();
    let mut steps = 0u64;
    let batch = n as u64; // ten churn events per batch
    while start.elapsed().as_secs_f64() < budget_secs {
        churn.run(&mut *sim, batch, &mut rng, |_, _| {});
        steps += batch;
    }
    Measurement {
        steps,
        seconds: start.elapsed().as_secs_f64(),
    }
}

/// Lanes per [`replicate_vec`] group in the Part-6 ensemble comparison —
/// the top of the 8–32 lane range, so one group covers the whole
/// replica set.
pub const ENSEMBLE_LANES: usize = 32;

/// Times a fixed ensemble workload — `replicas` independent seeds, each
/// simulated for `steps` time-steps at `n = 10⁵` on the torus — through
/// the work-stealing scalar path: one `u8` turbo engine per seed,
/// scheduled by [`replicate`](pp_engine::replicate()). The returned `steps` field counts
/// **replica-steps** (summed over replicas), so rates compare 1:1 with
/// [`measure_replicate_vec`].
pub fn measure_replicate_turbo(replicas: usize, steps: u64, seed: u64) -> Measurement {
    let weights = standard_weights();
    let topology = Torus2d::new(250, 400);
    let states = init::all_dark_balanced(topology.len(), &weights);
    let protocol = Diversification::new(weights);
    let seeds: Vec<u64> = (0..replicas as u64).map(|r| seed.wrapping_add(r)).collect();
    let start = Instant::now();
    let finished = replicate(seeds, |s| {
        let mut sim = TurboSimulator::<_, _, u8>::new(protocol.clone(), topology, &states, s);
        sim.run(steps);
        sim.step_count()
    });
    Measurement {
        steps: finished.iter().sum(),
        seconds: start.elapsed().as_secs_f64(),
    }
}

/// The same ensemble workload through the lane-parallel path:
/// [`replicate_vec`] packs the seeds into [`ENSEMBLE_LANES`]-lane
/// [`VecSimulator`](pp_engine::VecSimulator) groups, one shared schedule
/// walk driving all lanes of a group per step loop. Rates are
/// replica-steps per second, directly comparable with
/// [`measure_replicate_turbo`].
pub fn measure_replicate_vec(replicas: usize, steps: u64, seed: u64) -> Measurement {
    let weights = standard_weights();
    let topology = Torus2d::new(250, 400);
    let states = init::all_dark_balanced(topology.len(), &weights);
    let protocol = Diversification::new(weights);
    let seeds: Vec<u64> = (0..replicas as u64).map(|r| seed.wrapping_add(r)).collect();
    let start = Instant::now();
    let finished = replicate_vec::<_, _, u8, ENSEMBLE_LANES, _>(
        &protocol,
        &topology,
        &states,
        seed,
        &seeds,
        steps,
        |_seed, packed| packed.len() as u64,
    );
    Measurement {
        steps: steps.saturating_mul(finished.len() as u64),
        seconds: start.elapsed().as_secs_f64(),
    }
}

/// Measures the per-call cost of a **disabled** recorder macro: the
/// `obs_count!` guard with no sink selected. Engine call sites are
/// per-batch, so multiply by calls-per-step (turbo: `2 / n`) to get the
/// per-step overhead a run pays for instrumentation it is not using.
pub fn measure_obs_probe(iters: u64) -> Measurement {
    let start = Instant::now();
    for i in 0..iters {
        pp_obs::obs_count!("bench.obs_probe", std::hint::black_box(i) & 1);
    }
    Measurement {
        steps: iters,
        seconds: start.elapsed().as_secs_f64(),
    }
}

/// Runs the engine comparison.
pub fn run(preset: Preset, seed: u64) -> Report {
    let sizes: Vec<u64> = preset.pick(
        vec![10_000, 1_000_000, 100_000_000],
        vec![10_000, 1_000_000, 100_000_000],
    );
    let agent_budget = preset.pick(0.4, 2.0);
    let rounds = preset.pick(20u64, 40u64);
    // The agent engine at 10⁸ would need ~1 GB of states and minutes per
    // round; it is measured up to 10⁶ and the comparison row notes why.
    let agent_limit: u64 = 1_000_000;

    let mut table = Table::new([
        "n",
        "engine",
        "steps",
        "wall s",
        "Msteps/s",
        "speedup vs agent",
        "leap batches",
        "exact events",
        "ns/call",
    ]);
    let mut notes: Vec<String> = Vec::new();

    for &n in &sizes {
        let agent = if n <= agent_limit {
            let m = measure_agent(n as usize, seed, agent_budget);
            table.row([
                n.to_string(),
                "agent".to_string(),
                m.steps.to_string(),
                fmt_f64(m.seconds),
                fmt_f64(m.steps_per_second() / 1e6),
                "1".to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
            ]);
            Some(m)
        } else {
            table.row([
                n.to_string(),
                "agent".to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
            ]);
            None
        };

        let (dense, sim) = measure_dense(n, seed, rounds);
        let speedup = agent
            .map(|a| fmt_f64(dense.steps_per_second() / a.steps_per_second()))
            .unwrap_or_else(|| "n/a (agent infeasible)".to_string());
        table.row([
            n.to_string(),
            "dense".to_string(),
            dense.steps.to_string(),
            fmt_f64(dense.seconds),
            fmt_f64(dense.steps_per_second() / 1e6),
            speedup.clone(),
            sim.leap_batches().to_string(),
            sim.exact_events().to_string(),
            "-".to_string(),
        ]);
        if let Some(a) = agent {
            notes.push(format!(
                "n = {n}: dense {:.3e} steps/s vs agent {:.3e} steps/s ({}x)",
                dense.steps_per_second(),
                a.steps_per_second(),
                speedup
            ));
        } else {
            notes.push(format!(
                "n = {n}: dense simulated {} steps ({} parallel rounds) in {:.2} s — \
                 agent engine skipped (needs ~{} GB of per-agent state)",
                dense.steps,
                rounds,
                dense.seconds,
                (n as f64 * 8.0 / 1e9).ceil()
            ));
        }
    }

    // Part 2: the general-graph engines, on the topologies the t10
    // experiments sweep.
    let graph_budget = preset.pick(0.15, 0.6);
    let mut turbo_torus_rate = None;
    for (name, agent, packed, turbo, sharded) in run_graph_suite(seed, graph_budget) {
        if name == "torus" {
            turbo_torus_rate = Some(turbo.steps_per_second());
        }
        table.row([
            "100000".to_string(),
            format!("agent-dyn {name}"),
            agent.steps.to_string(),
            fmt_f64(agent.seconds),
            fmt_f64(agent.steps_per_second() / 1e6),
            "1".to_string(),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
        ]);
        let speedup = packed.steps_per_second() / agent.steps_per_second();
        table.row([
            "100000".to_string(),
            format!("packed {name}"),
            packed.steps.to_string(),
            fmt_f64(packed.seconds),
            fmt_f64(packed.steps_per_second() / 1e6),
            fmt_f64(speedup),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
        ]);
        let turbo_speedup = turbo.steps_per_second() / agent.steps_per_second();
        let vs_packed = turbo.steps_per_second() / packed.steps_per_second();
        table.row([
            "100000".to_string(),
            format!("turbo {name}"),
            turbo.steps.to_string(),
            fmt_f64(turbo.seconds),
            fmt_f64(turbo.steps_per_second() / 1e6),
            fmt_f64(turbo_speedup),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
        ]);
        let sharded_speedup = sharded.steps_per_second() / agent.steps_per_second();
        let sharded_vs_turbo = sharded.steps_per_second() / turbo.steps_per_second();
        table.row([
            "100000".to_string(),
            format!("sharded {name}"),
            sharded.steps.to_string(),
            fmt_f64(sharded.seconds),
            fmt_f64(sharded.steps_per_second() / 1e6),
            fmt_f64(sharded_speedup),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
        ]);
        notes.push(format!(
            "{name} @ n = 10^5: sharded {:.3e} vs turbo {:.3e} vs packed {:.3e} vs agent-dyn {:.3e} steps/s \
             (sharded/turbo {sharded_vs_turbo:.2}x, turbo/packed {vs_packed:.2}x, packed/agent {speedup:.2}x)",
            sharded.steps_per_second(),
            turbo.steps_per_second(),
            packed.steps_per_second(),
            agent.steps_per_second(),
        ));
    }

    // Part 3: the multi-core acceptance scale — turbo vs sharded at
    // n = 10⁶ on the torus, with however many cores this runner grants.
    let turbo_scale_rate;
    {
        let (turbo, sharded) = run_sharded_scale(seed, preset.pick(0.3, 1.0));
        turbo_scale_rate = turbo.steps_per_second();
        let ratio = sharded.steps_per_second() / turbo.steps_per_second();
        for (engine, m) in [("turbo", &turbo), ("sharded", &sharded)] {
            table.row([
                "1000000".to_string(),
                format!("{engine} torus"),
                m.steps.to_string(),
                fmt_f64(m.seconds),
                fmt_f64(m.steps_per_second() / 1e6),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
            ]);
        }
        notes.push(format!(
            "torus @ n = 10^6: sharded {:.3e} vs turbo {:.3e} steps/s (sharded/turbo {ratio:.2}x \
             on {} available core(s); target ≥ 1.5x on ≥ 2 cores, ≥ 0.9x single-core fallback)",
            sharded.steps_per_second(),
            turbo.steps_per_second(),
            pool::parallelism(),
        ));
    }

    // Part 4: adversarial churn through the generic Engine path, per fast
    // tier — the workload × engine combinations the Engine trait makes a
    // constructor argument.
    {
        let churn_budget = preset.pick(0.15, 0.6);
        let mut rates = Vec::new();
        for kind in [
            EngineKind::Packed,
            EngineKind::Turbo,
            EngineKind::Sharded,
            EngineKind::Vec,
        ] {
            let m = measure_churn_graph(kind, seed, churn_budget);
            table.row([
                "100000".to_string(),
                format!("{}+churn torus", kind.name()),
                m.steps.to_string(),
                fmt_f64(m.seconds),
                fmt_f64(m.steps_per_second() / 1e6),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
            ]);
            rates.push((kind, m.steps_per_second()));
        }
        let rate = |k: EngineKind| rates.iter().find(|(kk, _)| *kk == k).map(|&(_, r)| r);
        if let (Some(p), Some(t), Some(s)) = (
            rate(EngineKind::Packed),
            rate(EngineKind::Turbo),
            rate(EngineKind::Sharded),
        ) {
            notes.push(format!(
                "churn (1 reset per n/10 steps) @ n = 10^5 torus: turbo {t:.3e} vs packed {p:.3e} \
                 vs sharded {s:.3e} steps/s (turbo+churn/packed+churn {:.2}x, sharded+churn/turbo+churn {:.2}x) \
                 — the adversary rides the fast tiers through the generic Engine path",
                t / p,
                s / t,
            ));
        }
    }

    // Part 5: the recorder-overhead probe — what the *disabled*
    // instrumentation path costs: one predictable branch per macro call.
    // The per-step overhead on the turbo torus row (2 calls per 10⁵-step
    // batch) is far below the <1% target;
    // `disabled_recorder_overhead_under_one_percent` asserts it.
    {
        let iters = preset.pick(20_000_000u64, 100_000_000);
        let probe = measure_obs_probe(iters);
        let ns_per_call = probe.seconds * 1e9 / probe.steps as f64;
        // A probe call is not a simulation step, so the honest unit is
        // ns/call: the rate cell stays `-` and the gates exclude this row
        // by its engine name.
        table.row([
            "-".to_string(),
            "obs-probe".to_string(),
            probe.steps.to_string(),
            fmt_f64(probe.seconds),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
            fmt_f64(ns_per_call),
        ]);
        let implied = turbo_torus_rate
            .map(|r| {
                let step_ns = 1e9 / r;
                let per_step_ns = 2.0 * ns_per_call / 100_000.0;
                format!(
                    "; implied turbo-torus overhead {:.5}% of a {:.2} ns step",
                    100.0 * per_step_ns / step_ns,
                    step_ns
                )
            })
            .unwrap_or_default();
        notes.push(format!(
            "obs: sink {}; disabled obs_count! probe {:.4} ns/call over {} calls \
             (engine call sites are per-batch: turbo pays 2 calls per n-step batch){implied}",
            pp_obs::sink().name(),
            ns_per_call,
            probe.steps,
        ));
    }

    // Part 6: the ensemble tier — a fixed workload of R = 32 replicas at
    // n = 10⁵ on the torus, work-stealing scalar replication vs the
    // lane-parallel vec path. Both rows count replica-steps, so their
    // ratio is the ensemble speedup at equal simulated work.
    {
        let replicas = ENSEMBLE_LANES;
        let per_replica = preset.pick(100_000u64, 2_000_000);
        let scalar = measure_replicate_turbo(replicas, per_replica, seed);
        let vec = measure_replicate_vec(replicas, per_replica, seed);
        let ratio = vec.steps_per_second() / scalar.steps_per_second();
        for (engine, m, speedup) in [
            ("replicate-turbo torus", &scalar, "1".to_string()),
            ("replicate-vec torus", &vec, fmt_f64(ratio)),
        ] {
            table.row([
                "100000".to_string(),
                engine.to_string(),
                m.steps.to_string(),
                fmt_f64(m.seconds),
                fmt_f64(m.steps_per_second() / 1e6),
                speedup,
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
            ]);
        }
        notes.push(format!(
            "ensemble (R = {replicas} replicas × {per_replica} steps) @ n = 10^5 torus: \
             replicate-vec {:.3e} vs replicate-turbo {:.3e} replica-steps/s \
             ({ratio:.2}x, {} lanes/group on {} available core(s))",
            vec.steps_per_second(),
            scalar.steps_per_second(),
            ENSEMBLE_LANES,
            pool::parallelism(),
        ));
    }

    // Part 7: the count-split scaling ladder — the same 8-shard sharded
    // workload at P = 1/2/4/8 worker threads. The pinned layout keeps
    // every row on the identical trajectory; the notes carry the scaling
    // ratios and the p1-vs-turbo serial-overhead acceptance.
    {
        let ladder_budget = preset.pick(0.2, 0.8);
        let mut rates = Vec::new();
        for threads in [1usize, 2, 4, 8] {
            let m = measure_sharded_scaling(threads, seed, ladder_budget);
            table.row([
                "1000000".to_string(),
                format!("sharded-p{threads} torus"),
                m.steps.to_string(),
                fmt_f64(m.seconds),
                fmt_f64(m.steps_per_second() / 1e6),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
            ]);
            rates.push((threads, m.steps_per_second()));
        }
        let rate = |p: usize| rates.iter().find(|&&(t, _)| t == p).map(|&(_, r)| r);
        if let (Some(p1), Some(p2), Some(p4), Some(p8)) = (rate(1), rate(2), rate(4), rate(8)) {
            notes.push(format!(
                "count-split ladder @ n = 10^6 torus ({SCALING_SHARDS} shards, block {SCALING_BLOCK}): \
                 p1 {p1:.3e}, p2 {p2:.3e}, p4 {p4:.3e}, p8 {p8:.3e} steps/s \
                 (p2/p1 {:.2}x, p4/p1 {:.2}x, p8/p1 {:.2}x; p1/turbo {:.2}x, target ≥ 0.95x; \
                 {} available core(s) — scaling ratios are only meaningful when cores ≥ P)",
                p2 / p1,
                p4 / p1,
                p8 / p1,
                p1 / turbo_scale_rate,
                pool::parallelism(),
            ));
        }
    }

    let mut report = Report::new(
        "throughput (Diversification; complete graph: agent vs dense; general graphs: agent-dyn vs packed vs turbo vs sharded; +churn rows via the generic Engine path; +ensemble rows: replicate-turbo vs replicate-vec; weights = (1,1,2,4))",
        table,
    );
    for note in notes {
        report.note(note);
    }
    report.set_engine("multi");
    report.param("seed", seed);
    report.param("weights", "(1,1,2,4)");
    report.param("protocol", "diversification");
    if let Some(rate) = turbo_torus_rate {
        // The acceptance-row rate: turbo on the 250×400 torus at n = 10⁵.
        report.set_steps_per_sec(rate);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_engine_dominates_at_scale() {
        // A cut-down version of the benchmark's core claim: at n = 10⁶ the
        // dense engine is at least 100× faster per simulated step.
        let n: u64 = 1_000_000;
        let agent = measure_agent(n as usize, 9, 0.2);
        let (dense, _) = measure_dense(n, 9, 20);
        let speedup = dense.steps_per_second() / agent.steps_per_second();
        assert!(
            speedup >= 100.0,
            "dense speedup only {speedup:.1}x at n = 10^6 \
             (dense {:.3e} vs agent {:.3e} steps/s)",
            dense.steps_per_second(),
            agent.steps_per_second()
        );
    }

    #[test]
    fn engines_make_progress_on_general_graphs() {
        // Release-build ratios on the reference box (recorded in
        // BENCH_throughput.json and EXPERIMENTS.md): packed/agent ring
        // ≈ 2×, torus ≈ 1.6×, random-regular ≈ 2.6×; turbo/packed ring
        // ≈ 0.7×, torus ≈ 2.4×, random-regular ≈ 1.5×. (Packed is pinned
        // to the serial RNG stream by bit-exact equivalence; turbo's
        // counter-based randomness wins exactly where packed was branch-
        // or dispatch-bound, and loses modestly where packed already sits
        // at the memory floor — see EXPERIMENTS.md.)
        //
        // Wall-clock ratios are only meaningful with optimizations on and
        // the machine otherwise idle: the dev profile disables the
        // inlining the fast paths exist to enable, and sibling tests in
        // the parallel harness can deflate a 0.15 s window. So the ratio
        // gate is opt-in — `PP_PERF_ASSERT=1 cargo test --release -p
        // pp-bench engines_make_progress -- --test-threads=1` — with
        // floors below the weakest observed idle-box ratios; the default
        // suite asserts progress only, and the CI throughput job records
        // the full numbers on every run.
        let assert_ratio = !cfg!(debug_assertions) && std::env::var("PP_PERF_ASSERT").is_ok();
        for (name, agent, packed, turbo, sharded) in run_graph_suite(5, 0.15) {
            assert!(agent.steps > 0, "{name}: agent engine made no progress");
            assert!(packed.steps > 0, "{name}: packed engine made no progress");
            assert!(turbo.steps > 0, "{name}: turbo engine made no progress");
            assert!(sharded.steps > 0, "{name}: sharded engine made no progress");
            if assert_ratio {
                let floor = 1.15;
                let speedup = packed.steps_per_second() / agent.steps_per_second();
                assert!(
                    speedup >= floor,
                    "{name}: packed speedup only {speedup:.2}x \
                     (packed {:.3e} vs agent {:.3e} steps/s, floor {floor}x)",
                    packed.steps_per_second(),
                    agent.steps_per_second()
                );
                // Turbo floors per family: torus (branch-bound packed
                // baseline) must show a clear win; ring (memory-floor
                // baseline, recorded at ≈ 0.7×) must not regress far
                // below its measured ratio.
                let turbo_ratio = turbo.steps_per_second() / packed.steps_per_second();
                let turbo_floor = if name.contains("torus") { 2.0 } else { 0.55 };
                assert!(
                    turbo_ratio >= turbo_floor,
                    "{name}: turbo only {turbo_ratio:.2}x of packed \
                     (turbo {:.3e} vs packed {:.3e} steps/s, floor {turbo_floor}x)",
                    turbo.steps_per_second(),
                    packed.steps_per_second()
                );
            }
        }
    }

    #[test]
    fn churn_rides_every_fast_tier() {
        for kind in [
            EngineKind::Packed,
            EngineKind::Turbo,
            EngineKind::Sharded,
            EngineKind::Vec,
        ] {
            let m = measure_churn_graph(kind, 7, 0.1);
            assert!(m.steps > 0, "{kind:?} churn made no progress");
        }
    }

    #[test]
    fn ensemble_vec_beats_work_stealing_replicate() {
        // The Part-6 acceptance claim at reduced scale: the lane-parallel
        // ensemble path must deliver more replica-steps per second than
        // one-engine-per-seed work-stealing replication. Like the other
        // wall-clock gates, the ratio floor is opt-in
        // (`PP_PERF_ASSERT=1 cargo test --release -p pp-bench ensemble_vec
        // -- --test-threads=1`); the default suite asserts progress and
        // equal-work accounting only. The floor is the weakest idle-box
        // ratio observed on the single-core reference runner — the full
        // measured ratio lands in BENCH_throughput.json on every CI run.
        let replicas = ENSEMBLE_LANES;
        // Long enough that stepping dominates the timed region — at
        // 40k steps/replica the ensemble's one-off lane-major packing
        // (3 MiB at n = 10^5) eats the vec side's ~6 ms run and the
        // measured ratio collapses to setup noise.
        let per_replica = 250_000u64;
        let scalar = measure_replicate_turbo(replicas, per_replica, 5);
        let vec = measure_replicate_vec(replicas, per_replica, 5);
        let work = per_replica * replicas as u64;
        assert_eq!(scalar.steps, work, "scalar path lost replica-steps");
        assert_eq!(vec.steps, work, "vec path lost replica-steps");
        if !cfg!(debug_assertions) && std::env::var("PP_PERF_ASSERT").is_ok() {
            let ratio = vec.steps_per_second() / scalar.steps_per_second();
            // Measured on the reference runner: 2.1–2.5x at n = 10^5
            // (best-of-5, 400k steps/replica); single short runs dip to
            // ~2.0x under load, so the gate floor leaves headroom.
            let floor = 1.5;
            assert!(
                ratio >= floor,
                "replicate-vec only {ratio:.2}x of replicate-turbo \
                 (vec {:.3e} vs scalar {:.3e} replica-steps/s, floor {floor}x)",
                vec.steps_per_second(),
                scalar.steps_per_second()
            );
        }
    }

    #[test]
    fn disabled_recorder_overhead_under_one_percent() {
        // The zero-overhead-when-disabled contract (ISSUE 6 acceptance):
        // with no sink selected, the cost the engines pay for their
        // instrumentation must stay under 1% of the turbo step time. Turbo
        // places 2 macro calls per n-step batch, so the per-step cost is
        // 2 × cost(call) / n — measure both sides and compare. Like the
        // other wall-clock gates this is only meaningful with
        // optimizations on; the dev profile asserts progress only.
        let probe = measure_obs_probe(2_000_000);
        assert!(probe.steps > 0);
        if cfg!(debug_assertions) {
            return;
        }
        let ns_per_call = probe.seconds * 1e9 / probe.steps as f64;
        let n = 100_000.0;
        let per_step_ns = 2.0 * ns_per_call / n;
        let turbo = measure_turbo_graph(Torus2d::new(250, 400), 11, 0.05);
        let step_ns = 1e9 / turbo.steps_per_second();
        assert!(
            per_step_ns < 0.01 * step_ns,
            "disabled obs path costs {per_step_ns:.4} ns/step \
             (probe {ns_per_call:.4} ns/call, 2 calls per {n} steps) — \
             over 1% of the {step_ns:.2} ns turbo step"
        );
    }

    #[test]
    fn scaling_ladder_makes_progress_at_every_thread_count() {
        // The Part-7 rows must complete at every P even when the machine
        // has fewer cores — run_with_threads spawns workers regardless of
        // the pool budget. Speedup ratios are the CI bench job's gate;
        // here the gate is progress plus the pinned-layout invariant.
        for threads in [1usize, 2, 8] {
            let m = measure_sharded_scaling(threads, 3, 0.02);
            assert!(m.steps > 0, "p{threads} ladder row made no progress");
        }
    }

    #[test]
    fn hundred_million_agents_in_seconds() {
        let n: u64 = 100_000_000;
        let (m, sim) = measure_dense(n, 4, 20);
        assert!(
            m.seconds < 20.0,
            "n = 10^8 run took {:.1} s (expected seconds, not minutes)",
            m.seconds
        );
        let stats = CountConfig::from_classes(sim.counts()).stats();
        assert!(stats.all_colours_alive());
        assert_eq!(stats.population() as u64, n);
    }
}
