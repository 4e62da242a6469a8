//! One module per experiment, and [`ALL`], the one list of the harness's
//! entry points: its ids match the experiment table at the top of
//! EXPERIMENTS.md, in the same order.

pub mod ablations;
pub mod adversary;
pub mod baselines;
pub mod convergence;
pub mod derandomised;
pub mod diversity;
pub mod drift;
pub mod fairness;
pub mod fig1;
pub mod lower_bound;
pub mod markov;
pub mod model_check;
pub mod phase3;
pub mod sbm;
pub mod stability;
pub mod sustainability;
pub mod topologies;
pub mod uniform_partition;

use crate::runner::{EngineKind, Preset};
use pp_core::{packed::config_stats_from_class_counts, Weights};
use pp_stats::Table;

/// One entry point of the harness.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// Experiment id: the bin name and the `BENCH_<id>.json` stem.
    pub id: &'static str,
    /// Runs the experiment at a preset from its base seed.
    pub run: fn(Preset) -> Report,
}

/// Every experiment, in EXPERIMENTS.md table order, each with its base
/// seed. The bins, the suite bench and the conformance tests all read
/// this list; no other code lists the experiments.
pub const ALL: [Experiment; 20] = [
    Experiment {
        id: "fig1_phases",
        run: |p| fig1::run(p, 2024),
    },
    Experiment {
        id: "t1_convergence_n",
        run: |p| convergence::run_n_sweep(p, 100),
    },
    Experiment {
        id: "t2_convergence_w",
        run: |p| convergence::run_w_sweep(p, 200),
    },
    Experiment {
        id: "t3_diversity_error",
        run: |p| diversity::run(p, 300),
    },
    Experiment {
        id: "t4_phase3_error",
        run: |p| phase3::run(p, 400),
    },
    Experiment {
        id: "t5_fairness",
        run: |p| fairness::run(p, 500),
    },
    Experiment {
        id: "t6_sustainability",
        run: |p| sustainability::run(p, 600),
    },
    Experiment {
        id: "t7_baselines",
        run: |p| baselines::run(p, 700),
    },
    Experiment {
        id: "t8_derandomised",
        run: |p| derandomised::run(p, 800),
    },
    Experiment {
        id: "t9_markov",
        run: |p| markov::run(p, 900),
    },
    Experiment {
        id: "t10_topologies",
        run: |p| topologies::run(p, 1000),
    },
    Experiment {
        id: "t11_lower_bound",
        run: |p| lower_bound::run(p, 1100),
    },
    Experiment {
        id: "t12_uniform_partition",
        run: |p| uniform_partition::run(p, 1200),
    },
    // t13 shares base seed 1500 with t15, and t14 shares 1400 with
    // drift_lemmas; re-seeding either would change published tables.
    Experiment {
        id: "t13_stability",
        run: |p| stability::run(p, 1500),
    },
    Experiment {
        id: "t14_adversary",
        run: |p| adversary::run(p, 1400),
    },
    Experiment {
        id: "t15_sbm_blocks",
        run: |p| sbm::run(p, 1500),
    },
    Experiment {
        id: "t16_model_check",
        run: |p| model_check::run(p, model_check::inject_from_env()),
    },
    Experiment {
        id: "ablations",
        run: |p| ablations::run(p, 1300),
    },
    Experiment {
        id: "drift_lemmas",
        run: |p| drift::run(p, 1400),
    },
    Experiment {
        id: "throughput",
        run: |p| crate::throughput::run(p, 1600),
    },
];

/// The whole body of every experiment bin: runs the [`ALL`] entry `id`
/// through [`crate::output::run_bin`], which never returns.
///
/// # Panics
///
/// Panics if `id` is not in [`ALL`].
pub fn main(id: &str) -> ! {
    let experiment = ALL
        .iter()
        .find(|e| e.id == id)
        .unwrap_or_else(|| panic!("`{id}` is not an experiment in pp_bench::experiments::ALL"));
    crate::output::run_bin(experiment.id, experiment.run)
}

/// Post-convergence window-max diversity error of the randomised protocol
/// for an arbitrary weight table (shared by t3/t8/t10/t12), using the
/// engine selected by [`EngineKind::from_env`] (the topology here is always
/// `Complete`, so the dense engine is the default).
pub fn diversity_error_for(n: usize, weights: &Weights, seed: u64) -> f64 {
    diversity_error_for_with(EngineKind::from_env(), n, weights, seed)
}

/// [`diversity_error_for`] with an explicit engine choice — one generic
/// code path for every tier (the `Engine` trait's class-count observer).
pub fn diversity_error_for_with(engine: EngineKind, n: usize, weights: &Weights, seed: u64) -> f64 {
    let k = weights.len();
    let window = (2.0 * n as f64 * (n as f64).ln()) as u64;
    let stride = (n as u64 / 2).max(1);
    let mut worst: f64 = 0.0;
    let mut sim = crate::runner::converged_engine(engine, n, weights, seed);
    sim.run_observed(window, stride, &mut |_, counts| {
        let stats = config_stats_from_class_counts(counts, k);
        worst = worst.max(stats.max_diversity_error(weights));
    });
    worst
}

/// The output of one experiment: a titled table plus free-form notes
/// (fitted exponents, pass/fail verdicts, caveats).
#[derive(Debug, Clone)]
pub struct Report {
    /// Experiment id and description, e.g. `t3_diversity_error`.
    pub title: String,
    /// The rows the experiment reports.
    pub table: Table,
    /// Derived observations (fits, verdicts).
    pub notes: Vec<String>,
    /// Engine tier the experiment's rows ran on, or `"multi"` when they
    /// ran on more than one; the envelope writes `None` as `null`.
    pub engine: Option<String>,
    /// Topology/protocol parameters for the result-JSON `params` object;
    /// values are typed by the writer (numeric strings become numbers).
    pub params: Vec<(String, String)>,
    /// Aggregate step rate, when the experiment measures one (throughput).
    pub steps_per_sec: Option<f64>,
    /// Whether a gate the experiment enforces failed (t16's model check);
    /// the bin then exits with [`crate::output::EXIT_GATE_FAILURE`].
    pub gate_failed: bool,
}

impl Report {
    /// Creates a report.
    pub fn new(title: impl Into<String>, table: Table) -> Self {
        Report {
            title: title.into(),
            table,
            notes: Vec::new(),
            engine: None,
            params: Vec::new(),
            steps_per_sec: None,
            gate_failed: false,
        }
    }

    /// Appends a note.
    pub fn note(&mut self, note: impl Into<String>) -> &mut Self {
        self.notes.push(note.into());
        self
    }

    /// Records the engine tier this report ran on.
    pub fn set_engine(&mut self, engine: impl Into<String>) -> &mut Self {
        self.engine = Some(engine.into());
        self
    }

    /// Appends a `params` entry for the result-JSON envelope.
    pub fn param(&mut self, key: impl Into<String>, value: impl ToString) -> &mut Self {
        self.params.push((key.into(), value.to_string()));
        self
    }

    /// Records the aggregate step rate for the result-JSON envelope.
    pub fn set_steps_per_sec(&mut self, rate: f64) -> &mut Self {
        self.steps_per_sec = Some(rate);
        self
    }

    /// Renders title, table, and notes as text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        out.push_str(&self.table.render());
        for n in &self.notes {
            out.push_str(&format!("  note: {n}\n"));
        }
        out
    }

    /// Prints the report to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_all_parts() {
        let mut t = Table::new(["a"]);
        t.row(["1"]);
        let mut r = Report::new("demo", t);
        r.note("slope = 1.0");
        let text = r.render();
        assert!(text.contains("== demo =="));
        assert!(text.contains("slope = 1.0"));
    }
}
