//! Turbo-vs-packed statistical equivalence, protocol × topology family.
//!
//! The turbo engine's contract is distributional: its counter-based
//! batched randomness must simulate the *same Markov chain* as the
//! bit-exact engines, even though shared-seed trajectories differ. This
//! suite is that contract test, built on `pp_stats::equivalence`: for
//! every protocol (Diversification + the four consensus baselines) on
//! every topology family (complete, ring, torus, random-regular), both
//! engines run an ensemble of independent seeds and the per-seed
//! observables are compared with
//!
//! * chi-square on the terminal-state histogram of a probe agent,
//! * KS on the (capped) hit-time distribution of a protocol-specific
//!   event — convergence into the near-fair-share region for
//!   Diversification, first colour extinction for the consensus
//!   baselines, first large excursion for Anti-Voter,
//! * moment checks (mean + variance) on the summary-statistic trajectory
//!   at two checkpoints.
//!
//! Every suite applies a Bonferroni-corrected family-wise threshold, so
//! the grid can grow without inflating the false-alarm rate. Seeds are
//! fixed: the tests are deterministic.
//!
//! `PP_EQUIV_SEEDS` (default 48, which `cargo test` runs) scales the
//! ensemble. Keep it at 20 or above: below the harness's
//! `VARIANCE_TEST_MIN_N` the variance checks are dropped entirely, and
//! tiny ensembles also starve the chi-square histograms.

use pp_baselines::{AntiVoter, ThreeMajority, TwoChoices, Voter};
use pp_core::{init, packed::config_stats_from_words, Colour, Diversification, Weights};
use pp_engine::{replicate, Engine, PackedProtocol, PackedSimulator, TurboSimulator};
use pp_graph::{random_regular, Complete, Csr, Cycle, Topology, Torus2d};
use pp_stats::EquivalenceSuite;
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 256;
/// Summary/hit-predicate evaluation stride; budget and checkpoints are
/// multiples so both engines observe at identical steps.
const CHECK: u64 = 128;

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

/// One seed's reduced observables.
struct SeedRecord {
    probe: u32,
    hit_time: f64,
    /// `traj[checkpoint][stat]`: every summary statistic at every
    /// checkpoint.
    traj: Vec<Vec<f64>>,
}

/// The minimal engine surface the driver needs; implemented for both the
/// exact packed engine and the turbo engine (with `u8` storage, so the
/// narrow word path is exercised by the statistical contract too).
trait EngineRun {
    fn advance(&mut self, steps: u64);
    fn states_wide(&self) -> Vec<u32>;
}

impl<P: PackedProtocol, T: Topology> EngineRun for PackedSimulator<P, T>
where
    P::State: Send + Sync,
{
    fn advance(&mut self, steps: u64) {
        self.run(steps);
    }

    fn states_wide(&self) -> Vec<u32> {
        self.states_packed().to_vec()
    }
}

impl<P: PackedProtocol, T: Topology> EngineRun for TurboSimulator<P, T, u8>
where
    P::State: Send + Sync,
{
    fn advance(&mut self, steps: u64) {
        self.run(steps);
    }

    fn states_wide(&self) -> Vec<u32> {
        self.states_packed()
    }
}

/// Drives one run: advances in `CHECK`-step chunks, records the first
/// chunk boundary where `hit` holds (capped at the budget) and the
/// summary statistic at each checkpoint.
fn run_seed(
    engine: &mut dyn EngineRun,
    checkpoints: &[u64],
    stat: &(dyn Fn(&[u32]) -> Vec<f64> + Sync),
    hit: &(dyn Fn(&[u32]) -> bool + Sync),
) -> SeedRecord {
    let budget = budget();
    let mut hit_at: Option<u64> = None;
    let mut traj = Vec::with_capacity(checkpoints.len());
    let mut next_cp = 0usize;
    let mut at = 0u64;
    let mut wide = Vec::new();
    while at < budget {
        engine.advance(CHECK);
        at += CHECK;
        wide = engine.states_wide();
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

/// Histogram of probe states over `categories` cells.
fn probe_counts(records: &[SeedRecord], categories: usize) -> Vec<u64> {
    let mut counts = vec![0u64; categories];
    for r in records {
        counts[r.probe as usize] += 1;
    }
    counts
}

/// Runs one protocol × family cell on both engines and records the full
/// test battery into `suite`.
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
        run_seed(&mut sim, &checkpoints, stat, hit)
    });
    let turbo: Vec<SeedRecord> = replicate(0..seeds, |s| {
        let mut sim = TurboSimulator::<_, _, u8>::new(
            protocol.clone(),
            topology.clone(),
            &init,
            500_000 + cell * 1_000 + s,
        );
        run_seed(&mut sim, &checkpoints, stat, hit)
    });

    suite.check_counts(
        format!("{label}: terminal probe-state histogram"),
        &probe_counts(&packed, categories),
        &probe_counts(&turbo, categories),
    );
    let times = |rs: &[SeedRecord]| -> Vec<f64> { rs.iter().map(|r| r.hit_time).collect() };
    suite.check_distribution(
        format!("{label}: hit-time distribution"),
        &times(&packed),
        &times(&turbo),
    );
    for (i, &cp) in checkpoints.iter().enumerate() {
        for (j, stat_name) in stat_names.iter().enumerate() {
            let col = |rs: &[SeedRecord]| -> Vec<f64> { rs.iter().map(|r| r.traj[i][j]).collect() };
            let (pa, tu) = (col(&packed), col(&turbo));
            suite.check_moments(format!("{label}: {stat_name} @ step {cp}"), &pa, &tu);
            suite.check_distribution(format!("{label}: {stat_name} @ step {cp} [KS]"), &pa, &tu);
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

/// Fraction of agents holding colour 0 (consensus-baseline summary).
fn colour0_fraction(wide: &[u32]) -> f64 {
    wide.iter().filter(|&&p| p == 0).count() as f64 / wide.len() as f64
}

/// Fraction of dark agents (Diversification shade observable — sensitive
/// to rate bugs that colour-based statistics cannot see).
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

/// Whether some colour of `k` has gone extinct (consensus-baseline hit
/// event).
fn some_colour_extinct(wide: &[u32], k: usize) -> bool {
    let mut alive = vec![false; k];
    for &p in wide {
        alive[p as usize] = true;
    }
    alive.iter().any(|&a| !a)
}

#[test]
fn diversification_turbo_matches_packed_on_all_families() {
    let w = Weights::new(vec![1.0, 1.0, 2.0, 4.0]).unwrap();
    let k = w.len();
    let mut suite = EquivalenceSuite::new("turbo-vs-packed: diversification", 1e-3);
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
fn voter_turbo_matches_packed_on_all_families() {
    let k = 4;
    let mut suite = EquivalenceSuite::new("turbo-vs-packed: voter", 1e-3);
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

#[test]
fn two_choices_turbo_matches_packed_on_all_families() {
    let k = 4;
    let mut suite = EquivalenceSuite::new("turbo-vs-packed: 2-choices", 1e-3);
    for (i, (name, family)) in families(2).into_iter().enumerate() {
        compare_on_family(
            &mut suite,
            &format!("2-choices/{name}"),
            20 + i as u64,
            TwoChoices,
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

#[test]
fn three_majority_turbo_matches_packed_on_all_families() {
    let k = 4;
    let mut suite = EquivalenceSuite::new("turbo-vs-packed: 3-majority", 1e-3);
    for (i, (name, family)) in families(3).into_iter().enumerate() {
        compare_on_family(
            &mut suite,
            &format!("3-majority/{name}"),
            30 + i as u64,
            ThreeMajority,
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

#[test]
fn anti_voter_turbo_matches_packed_on_all_families() {
    // Anti-voter never reaches consensus; the hit event is the first
    // noticeable excursion of the colour-0 count from the half/half
    // equilibrium.
    let excursion = (N as f64).sqrt() / N as f64; // 1·√n agents, as a fraction
    let mut suite = EquivalenceSuite::new("turbo-vs-packed: anti-voter", 1e-3);
    for (i, (name, family)) in families(4).into_iter().enumerate() {
        compare_on_family(
            &mut suite,
            &format!("anti-voter/{name}"),
            40 + i as u64,
            AntiVoter,
            family,
            balanced_colours(2),
            2,
            &["colour-0 fraction"],
            move |wide| vec![colour0_fraction(wide)],
            move |wide| (colour0_fraction(wide) - 0.5).abs() >= excursion,
        );
    }
    suite.assert_pass();
}
