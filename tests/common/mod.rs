//! The statistical equivalence harness shared by the fast-tier batteries
//! (`tests/turbo_equivalence.rs`, `tests/sharded_equivalence.rs`,
//! `tests/vec_equivalence.rs`) and the ensemble size of
//! `tests/adversary_equivalence.rs`.
//!
//! A relaxed tier's contract is distributional: its counter-based
//! randomness must simulate the *same Markov chain* as the bit-exact
//! engines, even though shared-seed trajectories differ. Every cell runs
//! the exact [`PackedSimulator`] and one [`Candidate`] tier over the same
//! fixed [`SEEDS`]-seed ensemble, driving both through [`Engine::run`] in
//! [`CHECK`]-step calls, and records into one `pp_stats::EquivalenceSuite`
//!
//! * chi-square on the terminal-state histogram of a probe agent,
//! * KS on the (capped) hit-time distribution of a protocol-specific
//!   event — convergence into the near-fair-share region for
//!   Diversification, first colour extinction for the consensus
//!   baselines, first large excursion for Anti-Voter,
//! * moment (mean + variance) and KS checks on the summary statistics at
//!   two checkpoints.
//!
//! Every suite applies a Bonferroni-corrected family-wise threshold, so
//! the grid can grow without inflating the false-alarm rate. Seeds are
//! fixed and no tier's trajectory depends on thread count, so every
//! battery is deterministic on any machine. Candidates run on `u8`
//! storage, so the narrow word path is under the contract too. Each
//! (protocol, family, candidate) cell is monomorphized: families are
//! stored in the concrete [`FamilyTopo`] enum and candidates are matched
//! inside the generic cell runner.

// Each test binary compiles this module and uses a different part of it.
#![allow(dead_code)]

use pp_baselines::{AntiVoter, ThreeMajority, TwoChoices, Voter};
use pp_core::{init, packed::config_stats_from_words, Colour, Diversification, Weights};
use pp_engine::{
    replicate, Engine, PackedProtocol, PackedSimulator, ReadMode, ShardedSimulator, TurboSimulator,
    VecSimulator,
};
use pp_graph::{random_regular, Complete, Csr, Cycle, Topology, Torus2d};
use pp_stats::EquivalenceSuite;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Agents per run.
pub const N: usize = 256;
/// Seeds per ensemble. At or above the harness's `VARIANCE_TEST_MIN_N`
/// (20), below which the variance checks drop out and the chi-square
/// histograms starve.
pub const SEEDS: u64 = 48;
/// Summary/hit-predicate evaluation stride; budget and checkpoints are
/// multiples so every engine observes at identical steps.
pub const CHECK: u64 = 128;
/// Shards of the sharded candidate: enough that contiguous families have
/// interior boundaries on every side and the strided complete graph
/// defers most interactions.
const SHARDS: usize = 4;
/// The sharded candidate's default block length: divides `CHECK`, so
/// observations land on merge boundaries and both engines observe fully
/// reconciled states.
pub const BLOCK: u64 = 32;
/// Lanes per vec ensemble group.
const LANES: usize = 8;

const _: () = assert!(
    SEEDS.is_multiple_of(LANES as u64),
    "vec groups must be full"
);

/// The run length: ≈ 25·n·ln n, rounded to the evaluation stride.
fn budget() -> u64 {
    let raw = (25.0 * N as f64 * (N as f64).ln()) as u64;
    raw / CHECK * CHECK
}

/// The two steps at which the summary statistics are recorded.
fn checkpoints() -> [u64; 2] {
    let b = budget();
    [b / 2, b]
}

/// One seed's (for vec, one lane's) reduced observables.
struct SeedRecord {
    probe: u32,
    hit_time: f64,
    /// `traj[checkpoint][stat]`.
    traj: Vec<Vec<f64>>,
}

/// Which canonical sharded-scheduler bug a cell injects (power
/// demonstrations only; `None` for the contract batteries).
#[derive(Clone, Copy)]
pub enum Inject {
    None,
    /// Every queued boundary interaction applied twice in the merge.
    DoubleCount,
    /// One granted step per block migrated to shard 0 (sums preserved).
    SplitOffByOne,
}

/// The tier a cell compares against the exact packed engine, whose seeds
/// are `cell·1000 + s`.
#[derive(Clone, Copy)]
pub enum Candidate {
    /// [`TurboSimulator`], seeds `500_000 + cell·1000 + s`.
    Turbo,
    /// [`ShardedSimulator`] with [`SHARDS`] shards of `block` steps,
    /// seeds `700_000 + cell·1000 + s`. `mode: None` keeps the partition
    /// layout's default read mode.
    Sharded {
        mode: Option<ReadMode>,
        block: u64,
        inject: Inject,
    },
    /// [`VecSimulator`] in [`LANES`]-lane groups, one lane per seed: lane
    /// seeds `500_000 + cell·1000 + s`, group `g`'s master
    /// `900_000 + cell·1000 + g`. Lanes of one group share a schedule
    /// walk, so group-distinct masters are what licenses treating every
    /// lane as an independent sample.
    VecLanes,
}

impl Candidate {
    /// The sharded contract configuration: default read mode and block,
    /// no injected bug.
    pub const SHARDED: Candidate = Candidate::Sharded {
        mode: None,
        block: BLOCK,
        inject: Inject::None,
    };

    fn tier(self) -> &'static str {
        match self {
            Candidate::Turbo => "turbo",
            Candidate::Sharded { .. } => "sharded",
            Candidate::VecLanes => "vec",
        }
    }
}

/// Where a cell's records go: its check-label prefix, its seed offset
/// `cell`, and the tier under test.
pub struct Cell {
    pub label: String,
    pub cell: u64,
    pub candidate: Candidate,
}

/// What a cell observes on each packed population.
struct Observed<'a> {
    /// Probe-state histogram width.
    categories: usize,
    /// Names of the compared summary statistics: the first
    /// `stat_names.len()` entries of `stat`'s output.
    stat_names: &'a [&'a str],
    stat: &'a (dyn Fn(&[u32]) -> Vec<f64> + Sync),
    hit: &'a (dyn Fn(&[u32]) -> bool + Sync),
}

/// Runs `engine` to the budget in `CHECK`-step calls and reduces each of
/// its `lanes` replicas (one on the scalar tiers), read through `read`,
/// to a [`SeedRecord`]: the first chunk boundary where `hit` holds
/// (capped at the budget), the summary statistics at each checkpoint and
/// agent 0's final state.
fn run_lanes<E: Engine>(
    mut engine: E,
    lanes: usize,
    read: impl Fn(&E, usize) -> Vec<u32>,
    obs: &Observed,
) -> Vec<SeedRecord> {
    let budget = budget();
    let checkpoints = checkpoints();
    let mut hit_at = vec![None; lanes];
    let mut traj = vec![Vec::with_capacity(checkpoints.len()); lanes];
    let mut last = vec![Vec::new(); lanes];
    let mut next_cp = 0usize;
    let mut at = 0u64;
    while at < budget {
        engine.run(CHECK);
        at += CHECK;
        for (l, (states, hit)) in last.iter_mut().zip(&mut hit_at).enumerate() {
            *states = read(&engine, l);
            if hit.is_none() && (obs.hit)(states) {
                *hit = Some(at);
            }
        }
        while next_cp < checkpoints.len() && at >= checkpoints[next_cp] {
            for (t, states) in traj.iter_mut().zip(&last) {
                t.push((obs.stat)(states));
            }
            next_cp += 1;
        }
    }
    last.into_iter()
        .zip(hit_at)
        .zip(traj)
        .map(|((states, hit), traj)| SeedRecord {
            probe: states[0],
            hit_time: hit.unwrap_or(budget) as f64,
            traj,
        })
        .collect()
}

/// Runs one cell on the packed engine and on `cell.candidate`, and
/// records the full battery into `suite`.
fn compare<P, T>(
    suite: &mut EquivalenceSuite,
    cell: &Cell,
    protocol: P,
    topology: T,
    init: &[P::State],
    obs: &Observed,
) where
    P: PackedProtocol + Clone + 'static,
    P::State: Send + Sync,
    T: Topology + Clone + 'static,
{
    let base = cell.cell * 1_000;
    let packed: Vec<Vec<SeedRecord>> = replicate(0..SEEDS, |s| {
        let sim = PackedSimulator::new(protocol.clone(), topology.clone(), init, base + s);
        run_lanes(sim, 1, |e, _| e.states_packed().to_vec(), obs)
    });
    let candidate: Vec<Vec<SeedRecord>> = match cell.candidate {
        Candidate::Turbo => replicate(0..SEEDS, |s| {
            let sim = TurboSimulator::<_, _, u8>::new(
                protocol.clone(),
                topology.clone(),
                init,
                500_000 + base + s,
            );
            run_lanes(sim, 1, |e, _| e.states_packed(), obs)
        }),
        Candidate::Sharded {
            mode,
            block,
            inject,
        } => replicate(0..SEEDS, |s| {
            let mut sim = ShardedSimulator::<_, _, u8>::new(
                protocol.clone(),
                topology.clone(),
                init,
                700_000 + base + s,
            )
            .with_layout(SHARDS, block);
            if let Some(mode) = mode {
                sim = sim.with_read_mode(mode);
            }
            match inject {
                Inject::None => {}
                Inject::DoubleCount => sim.inject_boundary_double_count(true),
                Inject::SplitOffByOne => sim.inject_split_off_by_one(true),
            }
            run_lanes(sim, 1, |e, _| e.states_packed(), obs)
        }),
        Candidate::VecLanes => replicate(0..SEEDS / LANES as u64, |g| {
            let first = 500_000 + base + g * LANES as u64;
            let sim = VecSimulator::<_, _, u8, LANES>::new(
                protocol.clone(),
                topology.clone(),
                init,
                900_000 + base + g,
                std::array::from_fn(|l| first + l as u64),
            );
            run_lanes(sim, LANES, |e, l| e.lane_states_packed(l), obs)
        }),
    };
    let packed: Vec<SeedRecord> = packed.into_iter().flatten().collect();
    let candidate: Vec<SeedRecord> = candidate.into_iter().flatten().collect();
    let label = &cell.label;

    suite.check_counts(
        format!("{label}: terminal probe-state histogram"),
        &probe_counts(&packed, obs.categories),
        &probe_counts(&candidate, obs.categories),
    );
    let times = |rs: &[SeedRecord]| -> Vec<f64> { rs.iter().map(|r| r.hit_time).collect() };
    suite.check_distribution(
        format!("{label}: hit-time distribution"),
        &times(&packed),
        &times(&candidate),
    );
    for (i, cp) in checkpoints().into_iter().enumerate() {
        for (j, stat_name) in obs.stat_names.iter().enumerate() {
            let col = |rs: &[SeedRecord]| -> Vec<f64> { rs.iter().map(|r| r.traj[i][j]).collect() };
            let (pa, ca) = (col(&packed), col(&candidate));
            suite.check_moments(format!("{label}: {stat_name} @ step {cp}"), &pa, &ca);
            suite.check_distribution(format!("{label}: {stat_name} @ step {cp} [KS]"), &pa, &ca);
        }
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

/// Concrete family storage so each cell stays fully monomorphized.
pub enum FamilyTopo {
    Complete(Complete),
    Cycle(Cycle),
    Torus(Torus2d),
    Csr(Csr),
}

/// The four topology families of the batteries, at `n = 256`; the
/// random-regular graph is drawn from seed `900 + cell_seed`.
pub fn families(cell_seed: u64) -> Vec<(&'static str, FamilyTopo)> {
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

/// Dispatches one cell over the family enum.
fn compare_on_family<P>(
    suite: &mut EquivalenceSuite,
    cell: &Cell,
    family: FamilyTopo,
    protocol: P,
    init: &[P::State],
    obs: &Observed,
) where
    P: PackedProtocol + Clone + 'static,
    P::State: Send + Sync,
{
    match family {
        FamilyTopo::Complete(t) => compare(suite, cell, protocol, t, init, obs),
        FamilyTopo::Cycle(t) => compare(suite, cell, protocol, t, init, obs),
        FamilyTopo::Torus(t) => compare(suite, cell, protocol, t, init, obs),
        FamilyTopo::Csr(t) => compare(suite, cell, protocol, t, init, obs),
    }
}

/// The protocols of the family batteries. The discriminant `p` keys the
/// protocol's random-regular graph and cell seeds (see
/// [`family_battery`]).
#[derive(Clone, Copy)]
pub enum Protocol {
    Diversification = 0,
    Voter = 1,
    TwoChoices = 2,
    ThreeMajority = 3,
    AntiVoter = 4,
}

impl Protocol {
    /// Suite and label name.
    fn name(self) -> &'static str {
        match self {
            Protocol::Diversification => "diversification",
            Protocol::Voter => "voter",
            Protocol::TwoChoices => "2-choices",
            Protocol::ThreeMajority => "3-majority",
            Protocol::AntiVoter => "anti-voter",
        }
    }
}

/// The `<tier>-vs-packed: <protocol>` battery: `protocol` on all four
/// families (drawn from `families(p)`, cells `10·p + family`, where `p`
/// is the protocol's discriminant) against `candidate`.
pub fn family_battery(protocol: Protocol, candidate: Candidate) -> EquivalenceSuite {
    let name = protocol.name();
    let mut suite = EquivalenceSuite::new(format!("{}-vs-packed: {name}", candidate.tier()), 1e-3);
    let p = protocol as u64;
    for (i, (family_name, family)) in families(p).into_iter().enumerate() {
        let cell = Cell {
            label: format!("{name}/{family_name}"),
            cell: 10 * p + i as u64,
            candidate,
        };
        let s = &mut suite;
        match protocol {
            Protocol::Diversification => diversification(s, &cell, family, &DIVERSIFICATION_STATS),
            Protocol::Voter => consensus(s, &cell, family, Voter, some_colour_extinct),
            Protocol::TwoChoices => consensus(s, &cell, family, TwoChoices, some_colour_extinct),
            Protocol::ThreeMajority => {
                consensus(s, &cell, family, ThreeMajority, some_colour_extinct)
            }
            Protocol::AntiVoter => anti_voter(s, &cell, family),
        }
    }
    suite
}

/// Diversification's summary statistics, in the order its cell computes
/// them.
pub const DIVERSIFICATION_STATS: [&str; 3] =
    ["diversity error", "dark fraction", "colour-0 fraction"];

/// Colours of the consensus baselines.
const CONSENSUS_COLOURS: usize = 4;

/// A Diversification cell: weights `(1, 1, 2, 4)` from an all-dark
/// balanced start, hit event "diversity error below 0.25". `stat_names`
/// is a prefix of [`DIVERSIFICATION_STATS`].
pub fn diversification(
    suite: &mut EquivalenceSuite,
    cell: &Cell,
    family: FamilyTopo,
    stat_names: &[&str],
) {
    let w = Weights::new(vec![1.0, 1.0, 2.0, 4.0]).unwrap();
    let k = w.len();
    let stat = |wide: &[u32]| {
        vec![
            config_stats_from_words(wide, k).max_diversity_error(&w),
            dark_fraction(wide),
            wide.iter().filter(|&&p| p >> 1 == 0).count() as f64 / wide.len() as f64,
        ]
    };
    let hit = |wide: &[u32]| config_stats_from_words(wide, k).max_diversity_error(&w) < 0.25;
    let obs = Observed {
        categories: 2 * k,
        stat_names,
        stat: &stat,
        hit: &hit,
    };
    let init = init::all_dark_balanced(N, &w);
    compare_on_family(
        suite,
        cell,
        family,
        Diversification::new(w.clone()),
        &init,
        &obs,
    );
}

/// A consensus-baseline cell (Voter, 2-Choices, 3-Majority): four
/// balanced colours, the colour-0 fraction, max colour fraction and
/// alive-colour count, and the given hit event.
pub fn consensus<P>(
    suite: &mut EquivalenceSuite,
    cell: &Cell,
    family: FamilyTopo,
    protocol: P,
    hit: fn(&[u32]) -> bool,
) where
    P: PackedProtocol<State = Colour> + Clone + 'static,
{
    let stat = |wide: &[u32]| {
        vec![
            colour0_fraction(wide),
            max_colour_fraction(wide),
            alive_colours(wide),
        ]
    };
    let obs = Observed {
        categories: CONSENSUS_COLOURS,
        stat_names: &["colour-0 fraction", "max colour fraction", "alive colours"],
        stat: &stat,
        hit: &hit,
    };
    let init = balanced_colours(CONSENSUS_COLOURS);
    compare_on_family(suite, cell, family, protocol, &init, &obs);
}

/// An Anti-Voter cell. Anti-Voter never reaches consensus; the hit event
/// is the first noticeable excursion (1·√n agents) of the colour-0 count
/// from the half/half equilibrium.
fn anti_voter(suite: &mut EquivalenceSuite, cell: &Cell, family: FamilyTopo) {
    let excursion = (N as f64).sqrt() / N as f64;
    let stat = |wide: &[u32]| vec![colour0_fraction(wide)];
    let hit = |wide: &[u32]| (colour0_fraction(wide) - 0.5).abs() >= excursion;
    let obs = Observed {
        categories: 2,
        stat_names: &["colour-0 fraction"],
        stat: &stat,
        hit: &hit,
    };
    compare_on_family(suite, cell, family, AntiVoter, &balanced_colours(2), &obs);
}

/// Balanced colour assignment for the consensus baselines.
pub fn balanced_colours(k: usize) -> Vec<Colour> {
    (0..N).map(|u| Colour::new(u % k)).collect()
}

/// Fraction of agents holding colour 0.
fn colour0_fraction(wide: &[u32]) -> f64 {
    wide.iter().filter(|&&p| p == 0).count() as f64 / wide.len() as f64
}

/// Fraction of dark agents (Diversification shade observable — sensitive
/// to rate bugs that colour-based statistics cannot see).
fn dark_fraction(wide: &[u32]) -> f64 {
    wide.iter().filter(|&&p| p & 1 == 1).count() as f64 / wide.len() as f64
}

/// Fraction held by the currently largest consensus colour.
fn max_colour_fraction(wide: &[u32]) -> f64 {
    let mut counts = [0usize; CONSENSUS_COLOURS];
    for &p in wide {
        counts[p as usize] += 1;
    }
    counts.into_iter().max().unwrap_or(0) as f64 / wide.len() as f64
}

/// Number of consensus colours still alive.
fn alive_colours(wide: &[u32]) -> f64 {
    let mut alive = [false; CONSENSUS_COLOURS];
    for &p in wide {
        alive[p as usize] = true;
    }
    alive.iter().filter(|&&a| a).count() as f64
}

/// Whether some consensus colour has gone extinct (the consensus hit
/// event).
fn some_colour_extinct(wide: &[u32]) -> bool {
    alive_colours(wide) < CONSENSUS_COLOURS as f64
}

/// Whether colour 0 has gone extinct.
pub fn colour0_extinct(wide: &[u32]) -> bool {
    wide.iter().all(|&p| p != 0)
}

/// Asserts that `suite` rejected with at least one failure below 10⁻⁶.
pub fn assert_rejected_below_1e6(suite: &EquivalenceSuite, what: &str) {
    assert!(
        !suite.passed(),
        "{what} was not detected:\n{}",
        suite.render()
    );
    let min_p = suite
        .failures()
        .iter()
        .map(|(_, r)| r.p_value)
        .fold(f64::INFINITY, f64::min);
    assert!(
        min_p < 1e-6,
        "{what} only rejected at p = {min_p:.3e} (need < 1e-6):\n{}",
        suite.render()
    );
}
