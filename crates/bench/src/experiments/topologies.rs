//! `t10_topologies` — the future-work question: how does Diversification
//! behave beyond the complete graph?
//!
//! Same protocol, same budget (`30·n·ln n` steps), different interaction
//! graphs. The paper's analysis needs the complete graph; the expectation
//! (and the measured shape) is that well-mixing graphs (complete, dense ER,
//! random-regular, torus, within-community SBM) stay close to the fair
//! share while the cycle — diameter `n/2` — lags far behind at equal
//! budget.
//!
//! Every family runs through the generic [`Engine`]
//! path: `PP_ENGINE` selects the tier (packed by default — the dense
//! complete-graph default maps to its per-agent sibling via
//! [`EngineKind::per_agent`]), and the whole (family × seed) grid is
//! scheduled through one work-stealing pool ([`sweep_grid`]). The packed
//! tier lifts the comparison from the generic engine's `n = 1024` ceiling
//! to `n = 65 536` at full preset.

use crate::experiments::Report;
use crate::runner::{build_graph_engine, standard_weights, EngineKind, Preset};
use pp_core::{init, packed::config_stats_from_class_counts, AgentState, Weights};
use pp_engine::{sweep_grid, Engine};
use pp_graph::{
    erdos_renyi, random_regular, watts_strogatz, Complete, Csr, Cycle, Hypercube, Topology, Torus2d,
};
use pp_stats::{table::fmt_f64, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One topology family instance, concrete so every simulation below is
/// fully monomorphized (no `Box<dyn Topology>` in the hot path).
#[derive(Debug, Clone)]
enum FastTopo {
    Complete(Complete),
    Csr(Csr),
    Hypercube(Hypercube),
    Torus(Torus2d),
    Cycle(Cycle),
}

impl FastTopo {
    fn name(&self) -> String {
        match self {
            FastTopo::Complete(t) => t.name(),
            FastTopo::Csr(t) => t.name(),
            FastTopo::Hypercube(t) => t.name(),
            FastTopo::Torus(t) => t.name(),
            FastTopo::Cycle(t) => t.name(),
        }
    }

    /// Window-max diversity error after the fixed budget, on whichever
    /// engine tier `PP_ENGINE` selects. The match below dispatches the
    /// *topology* (keeping each family monomorphized); the engine
    /// dispatch happens once, inside [`build_graph_engine`].
    fn error_on(&self, weights: &Weights, seed: u64) -> f64 {
        match self.clone() {
            FastTopo::Complete(t) => error_on_engine(t, weights, seed),
            FastTopo::Csr(t) => error_on_engine(t, weights, seed),
            FastTopo::Hypercube(t) => error_on_engine(t, weights, seed),
            FastTopo::Torus(t) => error_on_engine(t, weights, seed),
            FastTopo::Cycle(t) => error_on_engine(t, weights, seed),
        }
    }
}

/// Window-max diversity error after a `30·n·ln n` budget, sampled over a
/// `2·n·ln n` trailing window — one definition for every engine tier and
/// family, so a budget or observable change cannot drift between them.
fn windowed_error(sim: &mut dyn Engine<State = AgentState>, n: usize, weights: &Weights) -> f64 {
    let k = weights.len();
    let nln = n as f64 * (n as f64).ln();
    sim.run((30.0 * nln) as u64);
    let mut worst: f64 = 0.0;
    sim.run_observed(
        (2.0 * nln) as u64,
        (n as u64 / 2).max(1),
        &mut |_, counts| {
            let stats = config_stats_from_class_counts(counts, k);
            worst = worst.max(stats.max_diversity_error(weights));
        },
    );
    worst
}

/// [`windowed_error`] on a freshly built engine of the env-selected tier.
fn error_on_engine<T>(topology: T, weights: &Weights, seed: u64) -> f64
where
    T: Topology + Clone + Send + Sync + 'static,
{
    let kind = EngineKind::from_env().per_agent();
    let n = topology.len();
    let states = init::all_dark_balanced(n, weights);
    let mut sim = build_graph_engine(kind, weights, topology, states, seed);
    windowed_error(&mut *sim, n, weights)
}

/// Samples an ER graph with average degree `avg_deg`, retrying (with a
/// perturbed seed) until every node has a neighbour — at `n = 65 536` and
/// degree 16 an isolated node appears in ~1 run in 150, and an isolated
/// node cannot interact at all.
fn connected_enough_er(n: usize, avg_deg: f64, seed: u64) -> Csr {
    let p = avg_deg / n as f64;
    for attempt in 0..16 {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(attempt * 7919));
        let g = erdos_renyi(n, p, &mut rng);
        if g.min_degree() >= 1 {
            return g.to_csr().with_name(format!("er(avg deg={avg_deg})"));
        }
    }
    panic!("no isolated-node-free G({n}, {p}) sample in 16 attempts");
}

/// The eight families, at size `n = side²`. The SBM is t15's sampler
/// ([`crate::experiments::sbm::sample_sbm`]) — one set of community
/// parameters for both experiments.
fn build_families(side: usize, seed: u64) -> Vec<FastTopo> {
    let n = side * side;
    let mut gen_rng = StdRng::seed_from_u64(seed.wrapping_add(100));
    let dim = (n as f64).log2() as u32; // n is a power of four, so exact.
    vec![
        FastTopo::Complete(Complete::new(n)),
        FastTopo::Csr(random_regular(n, 8, &mut gen_rng).to_csr()),
        FastTopo::Csr(connected_enough_er(n, 16.0, seed)),
        FastTopo::Csr(crate::experiments::sbm::sample_sbm(n, seed)),
        FastTopo::Hypercube(Hypercube::new(dim)),
        FastTopo::Csr(watts_strogatz(n, 4, 0.1, &mut gen_rng).to_csr()),
        FastTopo::Torus(Torus2d::new(side, side)),
        FastTopo::Cycle(Cycle::new(n)),
    ]
}

/// Runs the comparison.
pub fn run(preset: Preset, seed: u64) -> Report {
    // Quick runs what used to be the *full* scale (n = 1024); full rides
    // the fast tiers up to n = 65 536.
    let side = preset.pick(32usize, 256);
    let n = side * side;
    let reps = preset.pick(2u64, 3);
    let weights = standard_weights();

    let families = build_families(side, seed);
    let seeds: Vec<u64> = (0..reps).map(|r| seed.wrapping_add(r)).collect();
    let grid = sweep_grid(families.len(), &seeds, |job, s| {
        families[job].error_on(&weights, s)
    });

    let mut table = Table::new([
        "topology",
        "window-max diversity error",
        "vs complete",
        "seeds",
    ]);
    let mut complete_err = None;
    let mut rows = Vec::new();
    for (family, errors) in families.iter().zip(&grid) {
        let name = family.name();
        let err = errors.iter().sum::<f64>() / errors.len() as f64;
        if name == "complete" {
            complete_err = Some(err);
        }
        rows.push((name, err));
    }
    let base = complete_err.expect("complete graph measured");
    for (name, err) in &rows {
        table.row([
            name.clone(),
            fmt_f64(*err),
            format!("{:.2}x", err / base),
            reps.to_string(),
        ]);
    }

    let kind = EngineKind::from_env().per_agent();
    let mut report = Report::new(
        format!(
            "t10_topologies (n = {n}, weights = (1,1,2,4), budget = 30 n ln n, \
             {} engine)",
            kind.name()
        ),
        table,
    );
    report.set_engine(kind.name());
    let cycle_err = rows
        .iter()
        .find(|(name, _)| name == "cycle")
        .map(|&(_, e)| e)
        .expect("cycle measured");
    report.note(format!(
        "well-mixing graphs track the complete graph; the cycle lags by {:.1}x at equal budget \
         (diameter Θ(n) vs Θ(1)) — the trade-off the future-work section anticipates.",
        cycle_err / base
    ));
    report.note(format!(
        "engine: {} via the generic Engine path (PP_ENGINE selects any tier), \
         {} (family × seed) runs through one work-stealing pool; \
         sbm nodes are community-contiguous so contiguous shards align with blocks.",
        kind.name(),
        families.len() as u64 * reps
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_is_worst_complete_is_good() {
        let report = run(Preset::Quick, 13);
        let text = report.render();
        let value = |name: &str| -> f64 {
            text.lines()
                .find(|l| l.trim_start().starts_with(name))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| panic!("row {name} missing:\n{text}"))
        };
        let complete = value("complete");
        let cycle = value("cycle");
        assert!(complete < 0.15, "complete graph error {complete}:\n{text}");
        assert!(
            cycle > complete,
            "cycle ({cycle}) should lag complete ({complete}):\n{text}"
        );
        // The clustered SBM is well-mixing within blocks: globally it must
        // track the dense families, not the cycle.
        let sbm = value("sbm(blocks=4)");
        assert!(
            sbm < cycle,
            "sbm ({sbm}) should beat the cycle ({cycle}):\n{text}"
        );
    }

    #[test]
    fn er_retry_never_returns_isolated_nodes() {
        let g = connected_enough_er(256, 8.0, 3);
        assert!(g.min_degree() >= 1);
        assert_eq!(g.len(), 256);
    }

    #[test]
    fn sbm_family_is_contiguous_and_connected_enough() {
        let g = crate::experiments::sbm::sample_sbm(256, 3);
        assert!(g.min_degree() >= 1);
        assert_eq!(g.len(), 256);
        assert_eq!(g.preferred_partition(), pp_graph::PartitionKind::Contiguous);
    }
}
