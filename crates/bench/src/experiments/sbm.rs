//! `t15_sbm_blocks` — does diversity hold *within* communities?
//!
//! The paper's guarantee is global: colour fractions over the whole
//! population track the fair shares. On a clustered interaction graph
//! (stochastic block model: dense within-community edges, sparse
//! cross-community edges) a global guarantee could hide per-community
//! segregation — block 1 all-red, block 2 all-blue, globally balanced.
//! This experiment measures the window-max diversity error **per block**
//! and compares it to the global error at the same budget.
//!
//! Node numbering is community-contiguous (the `stochastic_block_model`
//! constructor's contract), so the sharded tier's contiguous partition
//! aligns shards with blocks — the report records the cross-edge
//! fraction of the contiguous layout against the strided one, which is
//! the partitioner story the SBM exists to stress.

use crate::experiments::Report;
use crate::runner::{build_graph_engine, standard_weights, EngineKind, Preset};
use pp_core::{init, ConfigStats, Weights};
use pp_graph::{stochastic_block_model, Csr, Partition, PartitionKind};
use pp_stats::{table::fmt_f64, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Number of communities.
const BLOCKS: usize = 4;

/// Samples the SBM both experiments share (t10's family list reuses this
/// sampler, so the parameters cannot drift apart): `BLOCKS` near-equal
/// communities, within-degree ≈ 12, cross-degree ≈ 2, retried until no
/// node is isolated. Node numbering is block-contiguous, so
/// `Partition::contiguous` — the CSR default — aligns shards with
/// communities for the sharded tier.
pub(crate) fn sample_sbm(n: usize, seed: u64) -> Csr {
    let block = n / BLOCKS;
    let sizes = [block, block, block, n - 3 * block];
    let p_in = 12.0 / block as f64;
    let p_out = 2.0 / ((BLOCKS - 1) * block) as f64;
    for attempt in 0..16 {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(attempt * 7919));
        let g = stochastic_block_model(&sizes, p_in, p_out, &mut rng);
        if g.min_degree() >= 1 {
            return g.to_csr().with_name("sbm(blocks=4)".to_string());
        }
    }
    panic!("no isolated-node-free SBM sample in 16 attempts");
}

/// Per-block + global window-max diversity errors for one seed.
fn block_errors(n: usize, weights: &Weights, seed: u64) -> (Vec<f64>, f64) {
    let kind = EngineKind::from_env().per_agent();
    let k = weights.len();
    let block = n / BLOCKS;
    let topology = sample_sbm(n, seed);
    let states = init::all_dark_balanced(n, weights);
    let mut sim = build_graph_engine(kind, weights, topology, states, seed);

    let nln = n as f64 * (n as f64).ln();
    sim.run((30.0 * nln) as u64);

    let mut worst_block = vec![0.0f64; BLOCKS];
    let mut worst_global = 0.0f64;
    let window = (2.0 * nln) as u64;
    let stride = (n as u64 / 2).max(1);
    let mut done = 0u64;
    while done < window {
        let burst = stride.min(window - done);
        sim.run(burst);
        done += burst;
        // Per-block shaded tallies, streamed straight off the engine: the
        // block of agent `u` is `u / block` (community-contiguous
        // numbering).
        let mut dark = vec![vec![0usize; k]; BLOCKS];
        let mut light = vec![vec![0usize; k]; BLOCKS];
        sim.visit_states(&mut |u, s| {
            let b = (u / block).min(BLOCKS - 1);
            let i = s.colour.index();
            if s.shade.bit() == 1 {
                dark[b][i] += 1;
            } else {
                light[b][i] += 1;
            }
        });
        let mut global_dark = vec![0usize; k];
        let mut global_light = vec![0usize; k];
        for b in 0..BLOCKS {
            for i in 0..k {
                global_dark[i] += dark[b][i];
                global_light[i] += light[b][i];
            }
            let stats = ConfigStats::from_counts(dark[b].clone(), light[b].clone());
            worst_block[b] = worst_block[b].max(stats.max_diversity_error(weights));
        }
        let stats = ConfigStats::from_counts(global_dark, global_light);
        worst_global = worst_global.max(stats.max_diversity_error(weights));
    }
    (worst_block, worst_global)
}

/// Runs the experiment.
pub fn run(preset: Preset, seed: u64) -> Report {
    let n = preset.pick(4_096, 65_536);
    let reps = preset.pick(2u64, 3);
    let weights = standard_weights();
    let kind = EngineKind::from_env().per_agent();

    let mut block_worst = [0.0f64; BLOCKS];
    let mut block_sum = [0.0f64; BLOCKS];
    let mut global_sum = 0.0f64;
    for r in 0..reps {
        let (blocks, global) = block_errors(n, &weights, seed.wrapping_add(r));
        for (b, e) in blocks.iter().enumerate() {
            block_worst[b] = block_worst[b].max(*e);
            block_sum[b] += e;
        }
        global_sum += global;
    }
    let global_mean = global_sum / reps as f64;

    let mut table = Table::new([
        "region",
        "mean window-max error",
        "worst over seeds",
        "vs global",
    ]);
    for b in 0..BLOCKS {
        let mean = block_sum[b] / reps as f64;
        table.row([
            format!("block {b} (n/{BLOCKS} nodes)"),
            fmt_f64(mean),
            fmt_f64(block_worst[b]),
            format!("{:.2}x", mean / global_mean),
        ]);
    }
    table.row([
        "global".to_string(),
        fmt_f64(global_mean),
        "-".to_string(),
        "1.00x".to_string(),
    ]);

    // The partitioner story: contiguous shards align with blocks, so
    // their cut is (nearly) only the sparse cross-community edges, while
    // strided shards cut everything.
    let csr = sample_sbm(n, seed);
    let contiguous = Partition::new(n, BLOCKS, PartitionKind::Contiguous).cross_edge_fraction(&csr);
    let strided = Partition::new(n, BLOCKS, PartitionKind::Strided).cross_edge_fraction(&csr);

    let worst = block_worst.iter().cloned().fold(0.0f64, f64::max);
    let mut report = Report::new(
        format!(
            "t15_sbm_blocks (n = {n}, 4 equal communities, within-degree ~12, \
             cross-degree ~2, weights = (1,1,2,4), {} engine)",
            kind.name()
        ),
        table,
    );
    report.set_engine(kind.name());
    // A block holds n/4 agents, so its own √n floor is ~2× the global
    // one; within-block diversity "holds" if block errors stay near that
    // scaling rather than drifting to segregation (error ~ fair share).
    let max_share = 0.5; // largest fair share of (1,1,2,4)
    report.note(format!(
        "diversity within blocks {}: worst block error {} stays far from segregation \
         (error ≈ {max_share} if a block lost a colour) and within ~{:.1}x of the \
         global error ({}), consistent with the (n/4)^(-1/2) concentration floor.",
        if worst < 0.5 * max_share {
            "holds"
        } else {
            "is VIOLATED"
        },
        fmt_f64(worst),
        (worst / global_mean).ceil(),
        fmt_f64(global_mean),
    ));
    report.note(format!(
        "partition alignment: contiguous shards cut {} of edges vs {} for strided — \
         community-contiguous numbering is what lets Partition::contiguous see the blocks.",
        fmt_f64(contiguous),
        fmt_f64(strided),
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diversity_holds_within_blocks() {
        let report = run(Preset::Quick, 23);
        let text = report.render();
        assert!(
            text.contains("diversity within blocks holds"),
            "within-block diversity violated:\n{text}"
        );
    }

    #[test]
    fn contiguous_partition_cuts_less_than_strided() {
        let csr = sample_sbm(1_024, 5);
        let contiguous =
            Partition::new(1_024, BLOCKS, PartitionKind::Contiguous).cross_edge_fraction(&csr);
        let strided =
            Partition::new(1_024, BLOCKS, PartitionKind::Strided).cross_edge_fraction(&csr);
        assert!(
            contiguous < strided / 2.0,
            "contiguous {contiguous} should cut far less than strided {strided}"
        );
    }
}
