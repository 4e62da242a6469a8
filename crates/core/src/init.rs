//! Initial configurations.
//!
//! The paper assumes every agent starts **dark** (`b_u(0) = 1` for all `u`)
//! and allows an arbitrary initial colour distribution as long as every
//! colour has at least one (dark) supporter — the state space `Ω` requires
//! `A_i ≥ 1`. These constructors cover the spectrum from balanced to
//! adversarially skewed starts used across the experiments.

use crate::{AgentState, Colour, DerandomisedDiversification, GreyState, Weights};

/// All agents dark, colours assigned round-robin so every colour gets
/// `⌈n/k⌉` or `⌊n/k⌋` agents — the "benign" start.
///
/// # Examples
///
/// ```
/// use pp_core::{init, ConfigStats, Weights};
///
/// let w = Weights::uniform(3);
/// let states = init::all_dark_balanced(10, &w);
/// let stats = ConfigStats::from_states(&states, 3);
/// assert_eq!(stats.total_dark(), 10);
/// assert!(stats.all_colours_alive());
/// ```
///
/// # Panics
///
/// Panics if `n < weights.len()` (some colour would start unsupported).
pub fn all_dark_balanced(n: usize, weights: &Weights) -> Vec<AgentState> {
    let k = weights.len();
    assert!(
        n >= k,
        "need at least one agent per colour: n = {n}, k = {k}"
    );
    // A wrapping counter, not `u % k`: a division per agent was most of
    // the cost of building a large population.
    (0..k)
        .cycle()
        .take(n)
        .map(|i| AgentState::dark(Colour::new(i)))
        .collect()
}

/// All agents dark with colour counts proportional to the weights (each
/// colour still gets at least one agent). This starts the colour totals at
/// their fair share, isolating the shade dynamics.
///
/// # Panics
///
/// Panics if `n < weights.len()`.
pub fn all_dark_proportional(n: usize, weights: &Weights) -> Vec<AgentState> {
    let k = weights.len();
    assert!(
        n >= k,
        "need at least one agent per colour: n = {n}, k = {k}"
    );
    let mut counts: Vec<usize> = (0..k)
        .map(|i| ((weights.fair_share(i) * n as f64).round() as usize).max(1))
        .collect();
    rebalance_to_n(&mut counts, n);
    from_dark_counts(&counts)
}

/// The adversarial start of Phase 1: one designated minority colour holds a
/// single agent and the remaining `n − k + 1` agents pile onto colour 0
/// (all other colours get one agent each). All dark.
///
/// This is the configuration that makes the `Ω(n log n)` broadcast lower
/// bound bite and exercises the "rise of the minorities" analysis.
///
/// # Panics
///
/// Panics if `n < weights.len()`.
pub fn all_dark_single_minority(n: usize, weights: &Weights) -> Vec<AgentState> {
    let k = weights.len();
    assert!(
        n >= k,
        "need at least one agent per colour: n = {n}, k = {k}"
    );
    let mut counts = vec![1usize; k];
    counts[0] = n - (k - 1);
    from_dark_counts(&counts)
}

/// All agents dark with explicit per-colour counts.
///
/// # Panics
///
/// Panics if any count is zero (the paper's `Ω` requires `A_i ≥ 1`).
pub fn from_dark_counts(counts: &[usize]) -> Vec<AgentState> {
    assert!(
        counts.iter().all(|&c| c >= 1),
        "every colour needs at least one dark agent (Ω requires A_i >= 1)"
    );
    let mut states = Vec::with_capacity(counts.iter().sum());
    for (i, &c) in counts.iter().enumerate() {
        states.extend(std::iter::repeat_n(AgentState::dark(Colour::new(i)), c));
    }
    states
}

/// Balanced fully-shaded start for the derandomised protocol: colours
/// round-robin, every agent at its colour's top shade `w_i`.
///
/// # Panics
///
/// Panics if `n < protocol.num_colours()`.
pub fn grey_balanced(n: usize, protocol: &DerandomisedDiversification) -> Vec<GreyState> {
    let k = protocol.num_colours();
    assert!(
        n >= k,
        "need at least one agent per colour: n = {n}, k = {k}"
    );
    (0..n).map(|u| protocol.full_shade(u % k)).collect()
}

/// Single-minority fully-shaded start for the derandomised protocol.
///
/// # Panics
///
/// Panics if `n < protocol.num_colours()`.
pub fn grey_single_minority(n: usize, protocol: &DerandomisedDiversification) -> Vec<GreyState> {
    let k = protocol.num_colours();
    assert!(
        n >= k,
        "need at least one agent per colour: n = {n}, k = {k}"
    );
    let mut states = Vec::with_capacity(n);
    states.extend(std::iter::repeat_n(protocol.full_shade(0), n - (k - 1)));
    for i in 1..k {
        states.push(protocol.full_shade(i));
    }
    states
}

/// Adjusts rounded counts so they sum to exactly `n` while keeping every
/// entry at least 1; surplus/deficit is absorbed by the largest entries.
fn rebalance_to_n(counts: &mut [usize], n: usize) {
    loop {
        let total: usize = counts.iter().sum();
        if total == n {
            return;
        }
        if total > n {
            let idx = max_index(counts);
            assert!(counts[idx] > 1, "cannot shrink counts below 1 per colour");
            counts[idx] -= 1;
        } else {
            let idx = max_index(counts);
            counts[idx] += 1;
        }
    }
}

fn max_index(counts: &[usize]) -> usize {
    counts
        .iter()
        .enumerate()
        .max_by_key(|&(_, &c)| c)
        .map(|(i, _)| i)
        .expect("non-empty counts")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConfigStats, IntWeights};

    #[test]
    fn balanced_covers_all_colours() {
        let w = Weights::uniform(4);
        let states = all_dark_balanced(10, &w);
        let stats = ConfigStats::from_states(&states, 4);
        assert_eq!(stats.population(), 10);
        assert_eq!(stats.total_light(), 0);
        assert!(stats.all_colours_alive());
        // Round-robin: counts differ by at most 1.
        let counts: Vec<usize> = (0..4).map(|i| stats.colour_count(i)).collect();
        assert_eq!(
            counts.iter().max().unwrap() - counts.iter().min().unwrap(),
            1
        );
    }

    #[test]
    fn proportional_tracks_weights() {
        let w = Weights::new(vec![1.0, 3.0]).unwrap();
        let states = all_dark_proportional(100, &w);
        let stats = ConfigStats::from_states(&states, 2);
        assert_eq!(stats.population(), 100);
        assert_eq!(stats.colour_count(0), 25);
        assert_eq!(stats.colour_count(1), 75);
    }

    #[test]
    fn proportional_guarantees_support() {
        // Extreme skew: light colour must still get one agent.
        let w = Weights::new(vec![1.0, 1000.0]).unwrap();
        let states = all_dark_proportional(10, &w);
        let stats = ConfigStats::from_states(&states, 2);
        assert!(stats.all_colours_alive());
        assert_eq!(stats.population(), 10);
    }

    #[test]
    fn single_minority_shape() {
        let w = Weights::uniform(3);
        let states = all_dark_single_minority(50, &w);
        let stats = ConfigStats::from_states(&states, 3);
        assert_eq!(stats.colour_count(0), 48);
        assert_eq!(stats.colour_count(1), 1);
        assert_eq!(stats.colour_count(2), 1);
        assert!(stats.all_colours_alive());
    }

    #[test]
    fn from_dark_counts_exact() {
        let states = from_dark_counts(&[2, 3]);
        let stats = ConfigStats::from_states(&states, 2);
        assert_eq!(stats.dark_count(0), 2);
        assert_eq!(stats.dark_count(1), 3);
        assert_eq!(stats.total_light(), 0);
    }

    #[test]
    #[should_panic(expected = "A_i >= 1")]
    fn rejects_unsupported_colour() {
        from_dark_counts(&[3, 0]);
    }

    #[test]
    fn grey_starts() {
        let p = DerandomisedDiversification::new(IntWeights::new(vec![2, 3]).unwrap());
        let balanced = grey_balanced(6, &p);
        assert_eq!(balanced.len(), 6);
        assert!(balanced.iter().all(|s| !s.is_light()));
        assert_eq!(balanced[0].shade(), 2);
        assert_eq!(balanced[1].shade(), 3);

        let minority = grey_single_minority(10, &p);
        let stats = ConfigStats::from_grey_states(&minority, 2);
        assert_eq!(stats.colour_count(0), 9);
        assert_eq!(stats.colour_count(1), 1);
    }

    #[test]
    #[should_panic(expected = "at least one agent per colour")]
    fn rejects_tiny_population() {
        all_dark_balanced(2, &Weights::uniform(3));
    }
}
