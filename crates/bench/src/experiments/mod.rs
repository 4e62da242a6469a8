//! One module per experiment; ids match the experiment table at the top of
//! EXPERIMENTS.md.

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

use crate::runner::EngineKind;
use pp_core::{packed::config_stats_from_class_counts, Weights};
use pp_stats::Table;

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
    /// Engine tier the experiment ran on, when one engine is meaningful
    /// (multi-engine sweeps leave it `None` and name engines per row).
    pub engine: Option<String>,
    /// Topology/protocol parameters for the result-JSON `params` object;
    /// values are typed by the writer (numeric strings become numbers).
    pub params: Vec<(String, String)>,
    /// Aggregate step rate, when the experiment measures one (throughput).
    pub steps_per_sec: Option<f64>,
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
