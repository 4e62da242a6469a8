//! `t14_adversary` — the robustness claims measured systematically:
//! recovery time per **shock type × engine tier**, plus the churn
//! dynamic-equilibrium error per tier.
//!
//! t6 demonstrates each robustness claim once, on the env-selected
//! engine; this bin is the grid the `Engine` refactor makes a one-line
//! combination — every shock from `pp-adversary` on every tier (generic,
//! dense, packed, turbo, sharded, vec) through the same generic code path,
//! with no per-engine arms anywhere. Cross-tier agreement of these rows
//! is itself a coarse equivalence check on the adversary fast path (the
//! fine-grained one is `tests/adversary_equivalence.rs`).

use crate::experiments::Report;
use crate::runner::{build_engine, build_graph_engine, EngineKind, Preset, ALL_ENGINES};
use pp_adversary::{error_under_churn, recovery_time, Shock};
use pp_core::{
    init, packed::config_stats_from_class_counts, region::GoodSet, AgentState, Colour, Weights,
};
use pp_graph::{Complete, Cycle, Topology, Torus2d};
use pp_stats::{median, table::fmt_f64, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One converged engine of the given tier (balanced all-dark start, Thm
/// 1.3 budget), ready to be shocked.
fn converged(kind: EngineKind, n: usize, weights: &Weights, seed: u64) -> crate::runner::DivEngine {
    let states = init::all_dark_balanced(n, weights);
    let mut sim = build_engine(kind, weights, states, seed);
    sim.run(pp_core::theory::convergence_budget(n, weights.total(), 4.0));
    sim
}

/// One converged packed-tier engine on an arbitrary topology (sparse
/// families mix slower than the complete graph, so the burn-in budget is
/// the caller's).
fn converged_on<T>(topo: T, weights: &Weights, seed: u64, burn_in: u64) -> crate::runner::DivEngine
where
    T: Topology + Clone + Send + Sync + 'static,
{
    let states = init::all_dark_balanced(topo.len(), weights);
    let mut sim = build_graph_engine(EngineKind::Packed, weights, topo, states, seed);
    sim.run(burn_in);
    sim
}

/// Runs the grid.
pub fn run(preset: Preset, seed: u64) -> Report {
    let n = preset.pick(300, 4_096);
    let seeds = preset.pick(2u64, 3);
    let weights = Weights::uniform(4);
    let good = GoodSet::new(weights.clone(), 0.35);
    let nln = n as f64 * (n as f64).ln();
    let budget = pp_core::theory::convergence_budget(n, weights.total(), 64.0);

    let shocks: Vec<(&str, Shock)> = vec![
        (
            "inject colour 0 (n/10 dark)",
            Shock::InjectColour {
                colour: Colour::new(0),
                recruits: (n / 10).max(2),
            },
        ),
        (
            "add n/5 dark agents",
            Shock::AddAgents {
                count: n / 5,
                state: AgentState::dark(Colour::new(1)),
            },
        ),
        ("remove n/5 agents", Shock::RemoveAgents { count: n / 5 }),
    ];

    let mut table = Table::new(["engine", "measurement", "result"]);
    let mut notes = Vec::new();
    let mut all_recovered = true;

    for kind in ALL_ENGINES {
        for (label, shock) in &shocks {
            let times: Vec<f64> = (0..seeds)
                .map(|s| {
                    let mut sim = converged(kind, n, &weights, seed.wrapping_add(s));
                    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(100 + s));
                    recovery_time(&mut *sim, shock, &good, &mut rng, budget, n as u64 / 2)
                        .map(|t| t as f64)
                        .unwrap_or(f64::INFINITY)
                })
                .collect();
            let med = median(&times).expect("non-empty");
            all_recovered &= med.is_finite();
            table.row([
                kind.name().to_string(),
                format!("recovery after {label}"),
                if med.is_finite() {
                    format!("{} n ln n (median of {seeds})", fmt_f64(med / nln))
                } else {
                    "did NOT recover within budget".to_string()
                },
            ]);
        }

        // Churn: dynamic-equilibrium error at a fast and a slow rate.
        let horizon = (20.0 * nln) as u64;
        let mut fast_rng = StdRng::seed_from_u64(seed.wrapping_add(200));
        let mut slow_rng = StdRng::seed_from_u64(seed.wrapping_add(200));
        let mut fast_sim = converged(kind, n, &weights, seed.wrapping_add(50));
        let mut slow_sim = converged(kind, n, &weights, seed.wrapping_add(50));
        let fast = error_under_churn(
            &mut *fast_sim,
            &weights,
            ((n / 100).max(2)) as u64,
            horizon,
            &mut fast_rng,
        );
        let slow = error_under_churn(
            &mut *slow_sim,
            &weights,
            (10 * n) as u64,
            horizon,
            &mut slow_rng,
        );
        table.row([
            kind.name().to_string(),
            "churn error (1 reset / n/100 steps vs 1 / 10n steps)".to_string(),
            format!("{} vs {}", fmt_f64(fast), fmt_f64(slow)),
        ]);
        if fast >= 0.5 || slow > fast + 0.05 {
            notes.push(format!(
                "{}: churn degradation out of expected order (fast {fast}, slow {slow})",
                kind.name()
            ));
        }
    }

    // Family × shock grid: the same shocks on the packed tier across
    // topology families. Resizing shocks (add/remove agents) have no
    // canonical meaning on fixed-size families (a torus has no "one more
    // agent" position) — `apply` panics there by design, so those grid
    // cells are skipped with a note rather than measured.
    let (rows2d, cols2d) = preset.pick((15, 20), (64, 64));
    assert_eq!(rows2d * cols2d, n, "torus dimensions must multiply to n");
    let sparse_burn_in = pp_core::theory::convergence_budget(n, weights.total(), 64.0);
    let sparse_budget = pp_core::theory::convergence_budget(n, weights.total(), 256.0);
    type MakeEngine<'a> = Box<dyn Fn(u64) -> crate::runner::DivEngine + 'a>;
    let families: Vec<(&str, bool, MakeEngine)> = vec![
        (
            "complete",
            true,
            Box::new(|s| converged_on(Complete::new(n), &weights, s, sparse_burn_in)),
        ),
        (
            "cycle",
            true,
            Box::new(|s| converged_on(Cycle::new(n), &weights, s, sparse_burn_in)),
        ),
        (
            "torus2d",
            false,
            Box::new(|s| converged_on(Torus2d::new(rows2d, cols2d), &weights, s, sparse_burn_in)),
        ),
    ];
    for (family, resizable, make) in &families {
        for (label, shock) in &shocks {
            if shock.resizes() && !resizable {
                table.row([
                    format!("packed@{family}"),
                    format!("recovery after {label}"),
                    "skipped".to_string(),
                ]);
                notes.push(format!(
                    "packed@{family}: `{}` skipped — the shock resizes the population \
                     and the {family} family has no canonical resize",
                    shock.label()
                ));
                continue;
            }
            // The recovery target here is the diversity error (the t10
            // metric), not the mean-field GoodSet: a sparse family's
            // equilibrium shade split is its own (the cycle hovers near
            // all-dark, with lights reabsorbed locally), but the colour
            // fractions must still return to the weighted shares.
            let mut sim = make(seed.wrapping_add(300));
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(400));
            pp_adversary::apply(shock, &mut *sim, &mut rng);
            let start = sim.step_count();
            let k = weights.len();
            let t = sim
                .run_until(sparse_budget, n as u64 / 2, &mut |counts, _| {
                    config_stats_from_class_counts(counts, k).max_diversity_error(&weights) <= 0.35
                })
                .map(|hit| (hit - start) as f64)
                .unwrap_or(f64::INFINITY);
            all_recovered &= t.is_finite();
            table.row([
                format!("packed@{family}"),
                format!("recovery after {label}"),
                if t.is_finite() {
                    format!("{} n ln n", fmt_f64(t / nln))
                } else {
                    "did NOT recover within budget".to_string()
                },
            ]);
        }
    }

    let mut report = Report::new(
        format!(
            "t14_adversary (n = {n}, uniform k = 4, shocks × all 6 engine tiers \
             through the generic Engine path, plus shocks × topology families \
             on the packed tier)"
        ),
        table,
    );
    report.set_engine("multi");
    report.note(format!(
        "robust recovery on every tier: {}",
        if all_recovered { "holds" } else { "VIOLATED" }
    ));
    report.note(
        "every row runs the same generic adversary code (pp-adversary over the Engine \
         trait); tier choice is a constructor argument, not a code path.",
    );
    report.note(
        "family rows recover to diversity error <= 0.35 (the t10 metric) rather than \
         the mean-field good set: sparse families keep their own shade split (the \
         cycle hovers near all-dark), but colour fractions must still return to the \
         weighted shares.",
    );
    for n in notes {
        report.note(n);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_tier_recovers_from_every_shock() {
        let report = run(Preset::Quick, 77);
        let text = report.render();
        assert!(
            text.contains("robust recovery on every tier: holds"),
            "{text}"
        );
        assert!(!text.contains("did NOT recover"), "{text}");
        // 6 engines × (3 shocks + 1 churn row) + 3 families × 3 shocks.
        assert_eq!(report.table.rows().len(), 33, "{text}");
    }

    #[test]
    fn resizing_shocks_are_skipped_on_fixed_families_with_a_note() {
        let report = run(Preset::Quick, 78);
        let skipped: Vec<_> = report
            .table
            .rows()
            .iter()
            .filter(|r| r[2] == "skipped")
            .collect();
        // Exactly the two resizing shocks on the torus; the cycle and
        // complete families support resize and measure all three.
        assert_eq!(skipped.len(), 2, "{:?}", report.table.rows());
        assert!(skipped.iter().all(|r| r[0] == "packed@torus2d"));
        assert!(report
            .notes
            .iter()
            .any(|n| n.contains("no canonical resize")));
    }
}
