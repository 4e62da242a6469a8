//! Output checks. Every check counts toward `attempted`; a check that does
//! not hold counts toward `failed`.

use pp_core::packed::config_stats_from_class_counts;
use pp_core::Weights;

/// Tally of output checks.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// The first failure, for the stderr report.
    pub first_failure: Option<String>,
}

impl Checks {
    /// Counts one check.
    pub fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.first_failure.get_or_insert(e);
        }
    }

    /// Counts one negative control: `result` is a check run on deliberately
    /// corrupted output, so it must *fail*; passing counts as a failure.
    pub fn expect_rejected(&mut self, what: &str, result: Result<(), String>) {
        self.record(match result {
            Ok(()) => Err(format!("negative control accepted: {what}")),
            Err(_) => Ok(()),
        });
    }

    /// Failed checks over attempted ones.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Conservation and sustainability: the class counts sum to `n`, every
/// occupied word encodes one of the `k` colours, and every colour keeps at
/// least one dark agent.
pub fn population(counts: &[u64], n: u64, k: usize) -> Result<(), String> {
    conserved(counts, n)?;
    if counts.iter().skip(2 * k).any(|&c| c > 0) {
        return Err(format!(
            "class counts name a colour outside 0..{k}: {counts:?}"
        ));
    }
    if !config_stats_from_class_counts(counts, k).all_colours_alive() {
        return Err(format!("a colour lost its last dark agent: {counts:?}"));
    }
    Ok(())
}

/// Conservation: the class counts sum to `n`.
pub fn conserved(counts: &[u64], n: u64) -> Result<(), String> {
    let total: u64 = counts.iter().sum();
    if total == n {
        Ok(())
    } else {
        Err(format!(
            "population not conserved: {total} agents, expected {n}"
        ))
    }
}

/// Diversity: the largest deviation of a colour's share from its fair
/// share `w_i/w` is at most `band`.
pub fn diversity(counts: &[u64], weights: &Weights, band: f64) -> Result<(), String> {
    let err = diversity_error(counts, weights);
    if err <= band {
        Ok(())
    } else {
        Err(format!("diversity error {err:.4} above the band {band}"))
    }
}

/// `max_i |C_i/n − w_i/w|` of a class-count vector.
pub fn diversity_error(counts: &[u64], weights: &Weights) -> f64 {
    config_stats_from_class_counts(counts, weights.len()).max_diversity_error(weights)
}

/// The negative-control input: `counts` with one agent of the largest
/// class deleted, which a conserving engine can never report.
pub fn tampered(counts: &[u64]) -> Vec<u64> {
    let mut t = counts.to_vec();
    if let Some(max) = t.iter_mut().max() {
        *max = max.saturating_sub(1);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tampered_counts_fail_the_population_check() {
        let counts = [0, 10, 0, 10, 0, 10, 0, 10];
        assert!(population(&counts, 40, 4).is_ok());
        assert!(population(&tampered(&counts), 40, 4).is_err());
        let mut c = Checks::default();
        c.expect_rejected("tampered", population(&tampered(&counts), 40, 4));
        assert_eq!((c.attempted, c.failed), (1, 0));
    }

    #[test]
    fn extinct_colour_fails() {
        assert!(population(&[0, 20, 0, 20, 0, 0, 0, 0], 40, 4).is_err());
    }
}
