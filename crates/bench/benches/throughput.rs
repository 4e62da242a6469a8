//! Criterion micro-benchmarks: interaction throughput per protocol and
//! topology, statistics costs, and Markov-chain solver costs.
//!
//! These are engineering benchmarks (how fast the simulator is), not paper
//! reproductions — those live in the `paper_experiments` bench target.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pp_baselines::{ThreeMajority, TwoChoices, Voter};
use pp_core::{
    init, ConfigStats, DerandomisedDiversification, Diversification, IntWeights, Weights,
};
use pp_dense::{CountConfig, DenseSimulator};
use pp_engine::{Engine, PackedSimulator, Protocol, Simulator};
use pp_graph::{random_regular, Complete, Cycle, Topology, Torus2d};
use pp_markov::{stationary_solve, IdealChain};

const STEPS_PER_ITER: u64 = 10_000;

fn bench_protocol_steps(c: &mut Criterion) {
    let n = 1_024;
    let weights = Weights::new(vec![1.0, 1.0, 2.0, 4.0]).unwrap();
    let mut group = c.benchmark_group("protocol_steps");
    group.throughput(Throughput::Elements(STEPS_PER_ITER));

    group.bench_function("diversification/complete-1024", |b| {
        let states = init::all_dark_balanced(n, &weights);
        let mut sim = Simulator::new(
            Diversification::new(weights.clone()),
            Complete::new(n),
            states,
            1,
        );
        b.iter(|| sim.run(STEPS_PER_ITER));
    });

    group.bench_function("derandomised/complete-1024", |b| {
        let protocol = DerandomisedDiversification::new(IntWeights::new(vec![1, 1, 2, 4]).unwrap());
        let states = init::grey_balanced(n, &protocol);
        let mut sim = Simulator::new(protocol, Complete::new(n), states, 1);
        b.iter(|| sim.run(STEPS_PER_ITER));
    });

    group.bench_function("voter/complete-1024", |b| {
        let states = (0..n).map(|u| pp_core::Colour::new(u % 4)).collect();
        let mut sim = Simulator::new(Voter, Complete::new(n), states, 1);
        b.iter(|| sim.run(STEPS_PER_ITER));
    });

    group.bench_function("2-choices/complete-1024", |b| {
        let states = (0..n).map(|u| pp_core::Colour::new(u % 4)).collect();
        let mut sim = Simulator::new(TwoChoices, Complete::new(n), states, 1);
        b.iter(|| sim.run(STEPS_PER_ITER));
    });

    group.bench_function("3-majority/complete-1024", |b| {
        let states = (0..n).map(|u| pp_core::Colour::new(u % 4)).collect();
        let mut sim = Simulator::new(ThreeMajority, Complete::new(n), states, 1);
        b.iter(|| sim.run(STEPS_PER_ITER));
    });

    group.finish();
}

fn bench_topologies(c: &mut Criterion) {
    let weights = Weights::uniform(4);
    let mut group = c.benchmark_group("topology_steps");
    group.throughput(Throughput::Elements(STEPS_PER_ITER));

    fn run_on<T: Topology>(b: &mut criterion::Bencher<'_>, topology: T, weights: &Weights) {
        let states = init::all_dark_balanced(topology.len(), weights);
        let mut sim = Simulator::new(Diversification::new(weights.clone()), topology, states, 1);
        b.iter(|| sim.run(STEPS_PER_ITER));
    }

    group.bench_function("complete-1024", |b| {
        run_on(b, Complete::new(1_024), &weights)
    });
    group.bench_function("cycle-1024", |b| run_on(b, Cycle::new(1_024), &weights));
    group.bench_function("torus-32x32", |b| run_on(b, Torus2d::new(32, 32), &weights));
    group.finish();
}

fn bench_scaling_in_n(c: &mut Criterion) {
    let weights = Weights::uniform(4);
    let mut group = c.benchmark_group("diversification_step_scaling");
    group.throughput(Throughput::Elements(STEPS_PER_ITER));
    for n in [256usize, 1_024, 4_096, 16_384] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let states = init::all_dark_balanced(n, &weights);
            let mut sim = Simulator::new(
                Diversification::new(weights.clone()),
                Complete::new(n),
                states,
                1,
            );
            b.iter(|| sim.run(STEPS_PER_ITER));
        });
    }
    group.finish();
}

fn bench_packed_engine(c: &mut Criterion) {
    // The general-graph fast path at n = 10⁵ (the ISSUE-2 acceptance
    // scale): packed monomorphized stepping vs the generic engine behind
    // `Box<dyn Topology>`, exactly as t10 ran before the fast path.
    let n = 100_000;
    let weights = Weights::new(vec![1.0, 1.0, 2.0, 4.0]).unwrap();
    let mut group = c.benchmark_group("general_graph_steps");
    group.throughput(Throughput::Elements(STEPS_PER_ITER));

    fn packed_on<T: Topology>(b: &mut criterion::Bencher<'_>, topology: T, weights: &Weights) {
        let states = init::all_dark_balanced(topology.len(), weights);
        let mut sim =
            PackedSimulator::new(Diversification::new(weights.clone()), topology, &states, 1);
        b.iter(|| sim.run(STEPS_PER_ITER));
    }

    fn dyn_on(b: &mut criterion::Bencher<'_>, topology: Box<dyn Topology>, weights: &Weights) {
        let states = init::all_dark_balanced(topology.len(), weights);
        let mut sim = Simulator::new(Diversification::new(weights.clone()), topology, states, 1);
        b.iter(|| sim.run(STEPS_PER_ITER));
    }

    use rand::{rngs::StdRng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(2);
    // Packed runs the CSR lowering; the generic baseline keeps the
    // `Vec<Vec>` builder representation t10 used before the fast path.
    let regular = random_regular(n, 8, &mut rng);

    group.bench_function("packed/ring-100k", |b| {
        packed_on(b, Cycle::new(n), &weights)
    });
    group.bench_function("agent-dyn/ring-100k", |b| {
        dyn_on(b, Box::new(Cycle::new(n)), &weights)
    });
    group.bench_function("packed/torus-100k", |b| {
        packed_on(b, Torus2d::new(250, 400), &weights)
    });
    group.bench_function("agent-dyn/torus-100k", |b| {
        dyn_on(b, Box::new(Torus2d::new(250, 400)), &weights)
    });
    group.bench_function("packed/regular8-100k", |b| {
        packed_on(b, regular.to_csr(), &weights)
    });
    group.bench_function("agent-dyn/regular8-100k", |b| {
        dyn_on(b, Box::new(regular.clone()), &weights)
    });
    group.finish();
}

fn bench_dense_engine(c: &mut Criterion) {
    // The count-based engine: same protocol, same step semantics, but the
    // per-step cost shrinks as n grows (τ-leap batches cover ~ε·n/k steps).
    let weights = Weights::new(vec![1.0, 1.0, 2.0, 4.0]).unwrap();
    let mut group = c.benchmark_group("dense_engine_steps");
    group.throughput(Throughput::Elements(STEPS_PER_ITER));
    for n in [1_024u64, 1_000_000, 100_000_000] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut sim = DenseSimulator::new(
                Diversification::new(weights.clone()),
                CountConfig::all_dark_balanced(n, 4).to_classes(),
                1,
            );
            b.iter(|| sim.run(STEPS_PER_ITER));
        });
    }
    group.finish();
}

fn bench_statistics(c: &mut Criterion) {
    let n = 16_384;
    let weights = Weights::new(vec![1.0, 1.0, 2.0, 4.0]).unwrap();
    let states = init::all_dark_balanced(n, &weights);
    let mut group = c.benchmark_group("statistics");

    group.bench_function("config_stats/16384", |b| {
        b.iter(|| ConfigStats::from_states(&states, 4));
    });

    let stats = ConfigStats::from_states(&states, 4);
    group.bench_function("phi_psi_sigma/16384", |b| {
        b.iter(|| {
            (
                pp_core::phi(&stats, &weights),
                pp_core::psi(&stats, &weights),
                pp_core::sigma_sq(&stats, &weights),
            )
        });
    });
    group.finish();
}

fn bench_markov(c: &mut Criterion) {
    let mut group = c.benchmark_group("markov");
    for k in [4usize, 16, 64] {
        let weights: Vec<f64> = (0..k).map(|i| 1.0 + (i % 4) as f64).collect();
        let chain = IdealChain::new(&weights, 1_024);
        group.bench_with_input(
            BenchmarkId::new("stationary_solve_2k_states", k),
            &chain,
            |b, chain| b.iter(|| stationary_solve(chain.matrix())),
        );
    }
    group.finish();
}

fn bench_transition_fn(c: &mut Criterion) {
    // The raw transition function, isolated from scheduling.
    use rand::{rngs::StdRng, SeedableRng};
    let weights = Weights::new(vec![1.0, 1.0, 2.0, 4.0]).unwrap();
    let protocol = Diversification::new(weights);
    let me = pp_core::AgentState::dark(pp_core::Colour::new(3));
    let other = pp_core::AgentState::dark(pp_core::Colour::new(3));
    let mut rng = StdRng::seed_from_u64(1);
    c.bench_function("transition_fn/diversification_rule2", |b| {
        b.iter(|| protocol.transition(&me, &[&other], &mut rng));
    });
}

criterion_group!(
    benches,
    bench_protocol_steps,
    bench_topologies,
    bench_scaling_in_n,
    bench_packed_engine,
    bench_dense_engine,
    bench_statistics,
    bench_markov,
    bench_transition_fn
);
criterion_main!(benches);
