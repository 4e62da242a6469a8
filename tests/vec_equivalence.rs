//! Vec-vs-packed statistical equivalence, **per lane**, plus the
//! one-lane bit-exactness contract vs turbo.
//!
//! The lane-parallel [`VecSimulator`] steps `L` replicas of one
//! `(topology, protocol)` pair in lockstep: a shared schedule walk picks
//! the same agent in every lane, and per-lane counter streams drive each
//! lane's partner draws and transition randomness. Its contract has two
//! halves, and this suite tests both:
//!
//! * **Bit-exact at `L = 1`**: with the lane seed equal to the master
//!   seed, the single lane replays the turbo engine's trajectory
//!   word-for-word — the vec tier is a strict generalisation, not a
//!   third randomness dialect. (`one_lane_vec_is_bit_exact_vs_turbo...`)
//! * **Distributional per lane at `L > 1`**: every lane of a multi-lane
//!   ensemble must look like an independent draw of the same Markov
//!   chain the bit-exact engines simulate. Lanes of one group share the
//!   schedule, so the harness gives every `L = 8` group its own master
//!   seed and treats each lane as one seed's run, then feeds the lanes
//!   through the same `pp_stats::equivalence` battery the turbo suite
//!   uses: chi-square on terminal probe states, KS on hit times, moment
//!   and KS checks on summary-statistic trajectories, all under one
//!   Bonferroni-corrected family-wise threshold.
//!
//! `PP_EQUIV_SEEDS` (default 48, which `cargo test` runs) scales the
//! ensemble. Keep it at 20 or above: below the
//! harness's `VARIANCE_TEST_MIN_N` the variance checks are dropped, and
//! tiny ensembles starve the chi-square histograms.

use pp_baselines::{TwoChoices, Voter};
use pp_core::{init, packed::config_stats_from_words, Colour, Diversification, Weights};
use pp_engine::{
    replicate, replicate_vec, Engine, PackedProtocol, PackedSimulator, TurboSimulator, VecSimulator,
};
use pp_graph::{random_regular, Complete, Csr, Cycle, Topology, Torus2d};
use pp_stats::EquivalenceSuite;
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 256;
/// Summary/hit-predicate evaluation stride; budget and checkpoints are
/// multiples so every engine observes at identical steps.
const CHECK: u64 = 128;
/// Lanes per ensemble group in the statistical tests.
const LANES: usize = 8;

fn equiv_seeds() -> u64 {
    std::env::var("PP_EQUIV_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(48)
}

fn budget() -> u64 {
    // ≈ 25·n·ln n, rounded to the evaluation stride.
    let raw = (25.0 * N as f64 * (N as f64).ln()) as u64;
    raw / CHECK * CHECK
}

/// One seed's (= one lane's) reduced observables.
struct SeedRecord {
    probe: u32,
    hit_time: f64,
    /// `traj[checkpoint][stat]`.
    traj: Vec<Vec<f64>>,
}

/// Drives one packed (exact-engine) run: advances in `CHECK`-step
/// chunks, records the first chunk boundary where `hit` holds (capped
/// at the budget) and the summary statistics at each checkpoint.
fn run_packed<P: PackedProtocol, T: Topology>(
    sim: &mut PackedSimulator<P, T>,
    checkpoints: &[u64],
    stat: &(dyn Fn(&[u32]) -> Vec<f64> + Sync),
    hit: &(dyn Fn(&[u32]) -> bool + Sync),
) -> SeedRecord
where
    P::State: Send + Sync,
{
    let budget = budget();
    let mut hit_at: Option<u64> = None;
    let mut traj = Vec::with_capacity(checkpoints.len());
    let mut next_cp = 0usize;
    let mut at = 0u64;
    let mut wide = Vec::new();
    while at < budget {
        sim.run(CHECK);
        at += CHECK;
        wide = sim.states_packed().to_vec();
        if hit_at.is_none() && hit(&wide) {
            hit_at = Some(at);
        }
        while next_cp < checkpoints.len() && at >= checkpoints[next_cp] {
            traj.push(stat(&wide));
            next_cp += 1;
        }
    }
    SeedRecord {
        probe: wide[0],
        hit_time: hit_at.unwrap_or(budget) as f64,
        traj,
    }
}

/// Drives one `L`-lane [`VecSimulator`] group through the same chunked
/// schedule and returns one [`SeedRecord`] **per lane**: each lane's hit
/// time and trajectory are evaluated on that lane's states alone, so a
/// lane enters the suite exactly like a scalar seed would.
#[allow(clippy::too_many_arguments)]
fn run_group<P, T, const L: usize>(
    protocol: P,
    topology: T,
    init: &[P::State],
    master: u64,
    lane_seeds: [u64; L],
    checkpoints: &[u64],
    stat: &(dyn Fn(&[u32]) -> Vec<f64> + Sync),
    hit: &(dyn Fn(&[u32]) -> bool + Sync),
) -> Vec<SeedRecord>
where
    P: PackedProtocol,
    P::State: Send + Sync,
    T: Topology,
{
    let budget = budget();
    let mut sim = VecSimulator::<P, T, u8, L>::new(protocol, topology, init, master, lane_seeds);
    let mut hit_at = [None::<u64>; L];
    let mut traj: Vec<Vec<Vec<f64>>> = (0..L).map(|_| Vec::new()).collect();
    let mut next_cp = 0usize;
    let mut at = 0u64;
    let mut last: Vec<Vec<u32>> = (0..L).map(|_| Vec::new()).collect();
    while at < budget {
        sim.run(CHECK);
        at += CHECK;
        for (l, slot) in last.iter_mut().enumerate() {
            *slot = sim.lane_states_packed(l);
            if hit_at[l].is_none() && hit(slot) {
                hit_at[l] = Some(at);
            }
        }
        while next_cp < checkpoints.len() && at >= checkpoints[next_cp] {
            for (l, t) in traj.iter_mut().enumerate() {
                t.push(stat(&last[l]));
            }
            next_cp += 1;
        }
    }
    traj.into_iter()
        .enumerate()
        .map(|(l, traj)| SeedRecord {
            probe: last[l][0],
            hit_time: hit_at[l].unwrap_or(budget) as f64,
            traj,
        })
        .collect()
}

/// Histogram of probe states over `categories` cells.
fn probe_counts(records: &[SeedRecord], categories: usize) -> Vec<u64> {
    let mut counts = vec![0u64; categories];
    for r in records {
        counts[r.probe as usize] += 1;
    }
    counts
}

/// Runs one protocol × family cell — exact packed engine vs the
/// multi-lane vec engine — and records the full test battery into
/// `suite`. Vec seeds are packed into [`LANES`]-lane groups, **each
/// group with its own master seed**: lanes of one group share a
/// schedule walk, so group-distinct masters are what licenses treating
/// every lane as an independent sample.
#[allow(clippy::too_many_arguments)]
fn compare_cell<P, T>(
    suite: &mut EquivalenceSuite,
    label: &str,
    cell: u64,
    protocol: P,
    topology: T,
    init: Vec<P::State>,
    categories: usize,
    stat_names: &[&str],
    stat: impl Fn(&[u32]) -> Vec<f64> + Sync,
    hit: impl Fn(&[u32]) -> bool + Sync,
) where
    P: PackedProtocol + Clone,
    P::State: Clone + Send + Sync,
    T: Topology + Clone,
{
    let seeds = equiv_seeds();
    let b = budget();
    let checkpoints = [b / 2, b];
    let stat = &stat;
    let hit = &hit;
    let packed: Vec<SeedRecord> = replicate(0..seeds, |s| {
        let mut sim =
            PackedSimulator::new(protocol.clone(), topology.clone(), &init, cell * 1_000 + s);
        run_packed(&mut sim, &checkpoints, stat, hit)
    });
    let lane_seeds: Vec<u64> = (0..seeds).map(|s| 500_000 + cell * 1_000 + s).collect();
    let groups: Vec<&[u64]> = lane_seeds.chunks(LANES).collect();
    let vec_lanes: Vec<Vec<SeedRecord>> = replicate(0..groups.len() as u64, |g| {
        let chunk = groups[g as usize];
        let master = 900_000 + cell * 1_000 + g;
        if let Ok(full) = <[u64; LANES]>::try_from(chunk) {
            run_group::<_, _, LANES>(
                protocol.clone(),
                topology.clone(),
                &init,
                master,
                full,
                &checkpoints,
                stat,
                hit,
            )
        } else {
            chunk
                .iter()
                .flat_map(|&s| {
                    run_group::<_, _, 1>(
                        protocol.clone(),
                        topology.clone(),
                        &init,
                        master,
                        [s],
                        &checkpoints,
                        stat,
                        hit,
                    )
                })
                .collect()
        }
    });
    let vec_records: Vec<SeedRecord> = vec_lanes.into_iter().flatten().collect();
    assert_eq!(vec_records.len() as u64, seeds, "{label}: lost a lane");

    suite.check_counts(
        format!("{label}: terminal probe-state histogram"),
        &probe_counts(&packed, categories),
        &probe_counts(&vec_records, categories),
    );
    let times = |rs: &[SeedRecord]| -> Vec<f64> { rs.iter().map(|r| r.hit_time).collect() };
    suite.check_distribution(
        format!("{label}: hit-time distribution"),
        &times(&packed),
        &times(&vec_records),
    );
    for (i, &cp) in checkpoints.iter().enumerate() {
        for (j, stat_name) in stat_names.iter().enumerate() {
            let col = |rs: &[SeedRecord]| -> Vec<f64> { rs.iter().map(|r| r.traj[i][j]).collect() };
            let (pa, ve) = (col(&packed), col(&vec_records));
            suite.check_moments(format!("{label}: {stat_name} @ step {cp}"), &pa, &ve);
            suite.check_distribution(format!("{label}: {stat_name} @ step {cp} [KS]"), &pa, &ve);
        }
    }
}

/// The four topology families of the acceptance criteria, at `n = 256`.
fn families(cell_seed: u64) -> Vec<(&'static str, FamilyTopo)> {
    let mut rng = StdRng::seed_from_u64(900 + cell_seed);
    vec![
        ("complete", FamilyTopo::Complete(Complete::new(N))),
        ("ring", FamilyTopo::Cycle(Cycle::new(N))),
        ("torus", FamilyTopo::Torus(Torus2d::new(16, 16))),
        (
            "random-regular",
            FamilyTopo::Csr(random_regular(N, 8, &mut rng).to_csr()),
        ),
    ]
}

/// Concrete family storage so each cell stays fully monomorphized.
#[derive(Clone)]
enum FamilyTopo {
    Complete(Complete),
    Cycle(Cycle),
    Torus(Torus2d),
    Csr(Csr),
}

/// Dispatches one cell over the family enum.
#[allow(clippy::too_many_arguments)]
fn compare_on_family<P>(
    suite: &mut EquivalenceSuite,
    label: &str,
    cell: u64,
    protocol: P,
    family: FamilyTopo,
    init: Vec<P::State>,
    categories: usize,
    stat_names: &[&str],
    stat: impl Fn(&[u32]) -> Vec<f64> + Sync + Clone,
    hit: impl Fn(&[u32]) -> bool + Sync + Clone,
) where
    P: PackedProtocol + Clone,
    P::State: Clone + Send + Sync,
{
    match family {
        FamilyTopo::Complete(t) => compare_cell(
            suite, label, cell, protocol, t, init, categories, stat_names, stat, hit,
        ),
        FamilyTopo::Cycle(t) => compare_cell(
            suite, label, cell, protocol, t, init, categories, stat_names, stat, hit,
        ),
        FamilyTopo::Torus(t) => compare_cell(
            suite, label, cell, protocol, t, init, categories, stat_names, stat, hit,
        ),
        FamilyTopo::Csr(t) => compare_cell(
            suite, label, cell, protocol, t, init, categories, stat_names, stat, hit,
        ),
    }
}

/// Balanced colour assignment for the consensus baselines.
fn balanced_colours(k: usize) -> Vec<Colour> {
    (0..N).map(|u| Colour::new(u % k)).collect()
}

/// Fraction of agents holding colour 0.
fn colour0_fraction(wide: &[u32]) -> f64 {
    wide.iter().filter(|&&p| p == 0).count() as f64 / wide.len() as f64
}

/// Fraction of dark agents (Diversification shade observable).
fn dark_fraction(wide: &[u32]) -> f64 {
    wide.iter().filter(|&&p| p & 1 == 1).count() as f64 / wide.len() as f64
}

/// Fraction held by the currently largest colour among `k`.
fn max_colour_fraction(wide: &[u32], k: usize) -> f64 {
    let mut counts = vec![0usize; k];
    for &p in wide {
        counts[p as usize] += 1;
    }
    counts.into_iter().max().unwrap_or(0) as f64 / wide.len() as f64
}

/// Number of colours of `k` still alive.
fn alive_colours(wide: &[u32], k: usize) -> f64 {
    let mut alive = vec![false; k];
    for &p in wide {
        alive[p as usize] = true;
    }
    alive.iter().filter(|&&a| a).count() as f64
}

/// Whether some colour of `k` has gone extinct.
fn some_colour_extinct(wide: &[u32], k: usize) -> bool {
    let mut alive = vec![false; k];
    for &p in wide {
        alive[p as usize] = true;
    }
    alive.iter().any(|&a| !a)
}

/// The `L = 1` contract: with the lane seed equal to the master seed,
/// the vec engine replays the turbo trajectory **bit-for-bit** — on a
/// one-observation protocol (Diversification, torus) and a
/// two-observation one (2-Choices, ring), checked at every `CHECK`-step
/// boundary, not just at the end.
#[test]
fn one_lane_vec_is_bit_exact_vs_turbo_shared_seed() {
    let w = Weights::new(vec![1.0, 1.0, 2.0, 4.0]).unwrap();
    let init_div = init::all_dark_balanced(N, &w);
    for seed in [3u64, 0xDEAD_BEEF] {
        let mut turbo = TurboSimulator::<_, _, u8>::new(
            Diversification::new(w.clone()),
            Torus2d::new(16, 16),
            &init_div,
            seed,
        );
        let mut vec = VecSimulator::<_, _, u8, 1>::from_seed(
            Diversification::new(w.clone()),
            Torus2d::new(16, 16),
            &init_div,
            seed,
        );
        for chunk in 0..32 {
            turbo.run(CHECK);
            vec.run(CHECK);
            assert_eq!(
                turbo.states_packed(),
                vec.lane_states_packed(0),
                "diversification diverged at chunk {chunk}, seed {seed}"
            );
        }
    }

    let init_cons = balanced_colours(4);
    for seed in [7u64, 99] {
        let mut turbo =
            TurboSimulator::<_, _, u8>::new(TwoChoices, Cycle::new(N), &init_cons, seed);
        let mut vec =
            VecSimulator::<_, _, u8, 1>::from_seed(TwoChoices, Cycle::new(N), &init_cons, seed);
        for chunk in 0..32 {
            turbo.run(CHECK);
            vec.run(CHECK);
            assert_eq!(
                turbo.states_packed(),
                vec.lane_states_packed(0),
                "2-choices diverged at chunk {chunk}, seed {seed}"
            );
        }
    }
}

/// The ensemble front-end's grouping invariance through the public API:
/// a seed count not divisible by the lane width produces byte-identical
/// per-seed results vs one-lane runs of the same engine.
#[test]
fn ensemble_remainders_match_one_lane_runs() {
    let w = Weights::new(vec![1.0, 1.0, 2.0, 4.0]).unwrap();
    let protocol = Diversification::new(w.clone());
    let topology = Torus2d::new(5, 8);
    let init = init::all_dark_balanced(40, &w);
    let master = 11;
    let steps = 4_000;
    let seeds: Vec<u64> = (0..11).map(|s| 60 + 7 * s).collect();
    let ensemble = replicate_vec::<_, _, u8, 8, _>(
        &protocol,
        &topology,
        &init,
        master,
        &seeds,
        steps,
        |seed, states| (seed, states.to_vec()),
    );
    assert_eq!(ensemble.len(), seeds.len());
    for (i, &seed) in seeds.iter().enumerate() {
        let mut solo =
            VecSimulator::<_, _, u8, 1>::new(protocol.clone(), topology, &init, master, [seed]);
        solo.run(steps);
        assert_eq!(
            ensemble[i],
            (seed, solo.lane_states_packed(0)),
            "seed {seed}"
        );
    }
}

#[test]
fn diversification_vec_lanes_match_packed_on_all_families() {
    let w = Weights::new(vec![1.0, 1.0, 2.0, 4.0]).unwrap();
    let k = w.len();
    let mut suite = EquivalenceSuite::new("vec-vs-packed: diversification", 1e-3);
    for (i, (name, family)) in families(0).into_iter().enumerate() {
        let w_stat = w.clone();
        let w_hit = w.clone();
        compare_on_family(
            &mut suite,
            &format!("diversification/{name}"),
            i as u64,
            Diversification::new(w.clone()),
            family,
            init::all_dark_balanced(N, &w),
            2 * k,
            &["diversity error", "dark fraction", "colour-0 fraction"],
            move |wide| {
                vec![
                    config_stats_from_words(wide, k).max_diversity_error(&w_stat),
                    dark_fraction(wide),
                    wide.iter().filter(|&&p| p >> 1 == 0).count() as f64 / wide.len() as f64,
                ]
            },
            move |wide| config_stats_from_words(wide, k).max_diversity_error(&w_hit) < 0.25,
        );
    }
    suite.assert_pass();
}

#[test]
fn voter_vec_lanes_match_packed_on_all_families() {
    let k = 4;
    let mut suite = EquivalenceSuite::new("vec-vs-packed: voter", 1e-3);
    for (i, (name, family)) in families(1).into_iter().enumerate() {
        compare_on_family(
            &mut suite,
            &format!("voter/{name}"),
            10 + i as u64,
            Voter,
            family,
            balanced_colours(k),
            k,
            &["colour-0 fraction", "max colour fraction", "alive colours"],
            move |wide| {
                vec![
                    colour0_fraction(wide),
                    max_colour_fraction(wide, k),
                    alive_colours(wide, k),
                ]
            },
            move |wide| some_colour_extinct(wide, k),
        );
    }
    suite.assert_pass();
}
