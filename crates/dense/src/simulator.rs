//! The batched count-based engine.

use crate::sampling::{binomial, geometric, pick_weighted};
use crate::{Channel, CountProtocol};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Channels with fewer spare firings than this are *critical*: they are
/// fired one event at a time with exact geometric waiting times, so
/// absorbing boundaries (the last dark agent of a colour) follow the true
/// dynamics instead of a batched approximation.
const CRITICAL_CAP: u64 = 16;

/// Leaps shorter than this are not worth the batching overhead; the engine
/// uses exact event sampling instead (which is also bias-free).
const MIN_LEAP: u64 = 8;

/// Simulates a [`CountProtocol`] on the complete graph by advancing the
/// class-count vector directly, in batches of many time-steps (τ-leaping).
///
/// Equivalent in distribution (up to the τ-leap tolerance `ε`) to running
/// `pp_engine::Simulator` on `Complete` and tallying states — but the work
/// per batch is `O(#channels)` instead of `O(τ)`, so a time-step costs
/// `O(#channels / τ) = O(k² / (ε·n))` amortised: population size makes the
/// engine *faster* per step, unlocking `n = 10⁸`.
///
/// Three mechanisms, combined automatically each batch (the standard
/// hybrid/modified τ-leap of chemical-kinetics simulation):
///
/// * **τ-leap**: every abundant ("non-critical") channel fires
///   `Binomial(τ, rate)` times, with `τ` chosen so no class's gross flow
///   exceeds a fraction `ε` of its count; firings are clamped to
///   [`CountProtocol::batch_cap`] so protocol invariants hold exactly, not
///   just in expectation.
/// * **exact critical events**: channels within `CRITICAL_CAP` firings of
///   an invariant boundary are excluded from leaping; the engine samples
///   the geometric waiting time to the next critical event and fires exactly
///   one, re-deriving rates from the updated counts each time.
/// * **exact fallback**: when even the non-critical flows demand tiny leaps,
///   the engine runs pure event-by-event sampling — the agent-based
///   dynamics' own count process, with no approximation at all.
///
/// A run is fully determined by `(protocol, initial counts, seed, ε)`.
///
/// # Examples
///
/// ```
/// use pp_core::{Diversification, Weights};
/// use pp_dense::{CountConfig, DenseSimulator};
///
/// let weights = Weights::new(vec![1.0, 1.0, 2.0]).unwrap();
/// let config = CountConfig::all_dark_balanced(1_000_000, 3);
/// let mut sim = DenseSimulator::new(
///     Diversification::new(weights.clone()),
///     config.to_classes(),
///     7,
/// );
/// sim.run(50_000_000);
/// let stats = CountConfig::from_classes(sim.counts()).stats();
/// assert!(stats.all_colours_alive());
/// assert!(stats.max_diversity_error(&weights) < 0.05);
/// ```
#[derive(Debug)]
pub struct DenseSimulator<P: CountProtocol> {
    protocol: P,
    channels: Vec<Channel>,
    counts: Vec<u64>,
    n: u64,
    step: u64,
    seed: u64,
    rng: StdRng,
    epsilon: f64,
    rates: Vec<f64>,
    mid_counts: Vec<u64>,
    mid_rates: Vec<f64>,
    critical: Vec<bool>,
    flow: Vec<f64>,
    avail: Vec<u64>,
    pending: Vec<i64>,
    leap_batches: u64,
    exact_events: u64,
}

impl<P: CountProtocol> DenseSimulator<P> {
    /// Creates a simulator at time-step 0 with the default tolerance
    /// `ε = 0.05`.
    ///
    /// # Panics
    ///
    /// Panics if the population is smaller than 2 or the channel list is
    /// malformed (`src == dst` or out-of-range classes), or if the protocol
    /// rejects the class count.
    pub fn new(protocol: P, counts: Vec<u64>, seed: u64) -> Self {
        let channels = protocol.channels(counts.len());
        let n: u64 = counts.iter().sum();
        assert!(n >= 2, "population needs at least 2 agents");
        for ch in &channels {
            assert!(
                ch.src < counts.len() && ch.dst < counts.len(),
                "channel {ch:?} out of range for {} classes",
                counts.len()
            );
            assert_ne!(ch.src, ch.dst, "channel must move between classes");
        }
        let num_channels = channels.len();
        let num_classes = counts.len();
        DenseSimulator {
            protocol,
            channels,
            counts,
            n,
            step: 0,
            seed,
            rng: StdRng::seed_from_u64(seed),
            epsilon: 0.05,
            rates: vec![0.0; num_channels],
            mid_counts: vec![0; num_classes],
            mid_rates: vec![0.0; num_channels],
            critical: vec![false; num_channels],
            flow: vec![0.0; num_classes],
            avail: vec![0; num_classes],
            pending: vec![0; num_classes],
            leap_batches: 0,
            exact_events: 0,
        }
    }

    /// Advances the clock by exactly `steps` time-steps of the agent-model
    /// schedule (each step = one scheduled agent observing one partner).
    pub fn run(&mut self, steps: u64) {
        let mut remaining = steps;
        while remaining > 0 {
            remaining -= self.advance(remaining);
        }
    }

    /// Runs until `pred(counts, step)` holds, checking every `check_every`
    /// steps (and once before the first step), for at most `max_steps`
    /// steps. Returns the step at which the predicate first held.
    ///
    /// # Panics
    ///
    /// Panics if `check_every == 0`.
    pub fn run_until(
        &mut self,
        max_steps: u64,
        check_every: u64,
        mut pred: impl FnMut(&[u64], u64) -> bool,
    ) -> Option<u64> {
        assert!(check_every > 0, "check_every must be positive");
        let deadline = self.step + max_steps;
        if pred(&self.counts, self.step) {
            return Some(self.step);
        }
        while self.step < deadline {
            let burst = check_every.min(deadline - self.step);
            self.run(burst);
            if pred(&self.counts, self.step) {
                return Some(self.step);
            }
        }
        None
    }

    /// Runs `steps` time-steps, invoking `observer(step, counts)` before the
    /// first step and after every `every`-th step.
    ///
    /// # Panics
    ///
    /// Panics if `every == 0`.
    pub fn run_observed(&mut self, steps: u64, every: u64, mut observer: impl FnMut(u64, &[u64])) {
        assert!(every > 0, "observation interval must be positive");
        observer(self.step, &self.counts);
        let deadline = self.step + steps;
        while self.step < deadline {
            let burst = every.min(deadline - self.step);
            self.run(burst);
            observer(self.step, &self.counts);
        }
    }

    /// One scheduling decision. Returns how many time-steps were consumed
    /// (at most `budget`, at least 1 when `budget > 0`).
    fn advance(&mut self, budget: u64) -> u64 {
        debug_assert!(budget > 0);
        self.protocol.rates(&self.counts, self.n, &mut self.rates);
        let mut total = 0.0;
        let mut critical_rate = 0.0;
        for c in 0..self.rates.len() {
            let r = &mut self.rates[c];
            if !r.is_finite() || *r < 0.0 {
                *r = 0.0;
            }
            total += *r;
            let crit = *r > 0.0 && {
                let src = self.channels[c].src;
                self.protocol
                    .batch_cap(c, &self.counts)
                    .min(self.counts[src])
                    < CRITICAL_CAP
            };
            self.critical[c] = crit;
            if crit {
                critical_rate += *r;
            }
        }
        if total <= 0.0 {
            // No channel can fire: the count process is frozen.
            self.step += budget;
            return budget;
        }

        let tau_leap = self.tau_estimate();
        if tau_leap < MIN_LEAP {
            // Even abundant flows demand single-digit steps: go fully exact.
            return self.exact_event(budget, total.min(1.0));
        }

        // Geometric waiting time to the next critical event (∞ if none).
        let tau_crit = if critical_rate > 0.0 {
            geometric(&mut self.rng, critical_rate.min(1.0))
        } else {
            u64::MAX
        };

        if tau_crit <= tau_leap && tau_crit <= budget {
            // Leap the abundant channels across the waiting steps, then fire
            // exactly one critical channel at step `tau_crit`.
            self.leap(tau_crit - 1);
            self.fire_critical(critical_rate);
            self.step += 1;
            tau_crit
        } else {
            let tau = tau_leap.min(budget);
            self.leap(tau);
            tau
        }
    }

    /// The τ keeping every class's expected gross *non-critical* flow below
    /// `ε · count` (empty classes may fill at up to `ε·n/(4·#classes)` per
    /// batch — products of a reaction may grow from zero freely).
    fn tau_estimate(&mut self) -> u64 {
        self.flow.fill(0.0);
        let mut any = false;
        for (c, &r) in self.rates.iter().enumerate() {
            if r > 0.0 && !self.critical[c] {
                let ch = self.channels[c];
                self.flow[ch.src] += r;
                self.flow[ch.dst] += r;
                any = true;
            }
        }
        if !any {
            return u64::MAX;
        }
        let mut tau = f64::INFINITY;
        for (class, &f) in self.flow.iter().enumerate() {
            if f > 0.0 {
                // Near-empty classes may still fill at a few agents per
                // batch (a fixed-point-free class pins ε-relative change at
                // zero otherwise); macroscopic classes are held to ε.
                let headroom = (self.counts[class] as f64).max(16.0);
                tau = tau.min(self.epsilon * headroom / f);
            }
        }
        if tau.is_finite() {
            tau.max(0.0).floor() as u64
        } else {
            u64::MAX
        }
    }

    /// Fully exact mode: geometric waiting time to the next state-changing
    /// interaction of *any* channel, then one weighted firing.
    fn exact_event(&mut self, budget: u64, total: f64) -> u64 {
        let wait = geometric(&mut self.rng, total);
        if wait > budget {
            self.step += budget;
            return budget;
        }
        let c = pick_weighted(&mut self.rng, &self.rates, total);
        self.fire_one(c);
        self.step += wait;
        self.exact_events += 1;
        pp_obs::obs_count!("dense.exact_events", 1);
        wait
    }

    /// Fires one critical channel, weighted by the critical rates.
    fn fire_critical(&mut self, critical_rate: f64) {
        debug_assert!(critical_rate > 0.0);
        let mut target = {
            use rand::RngExt;
            self.rng.random_unit() * critical_rate
        };
        let mut chosen = None;
        for (c, &r) in self.rates.iter().enumerate() {
            if self.critical[c] && r > 0.0 {
                chosen = Some(c);
                if target < r {
                    break;
                }
                target -= r;
            }
        }
        if let Some(c) = chosen {
            self.fire_one(c);
            self.exact_events += 1;
            pp_obs::obs_count!("dense.critical_fires", 1);
        }
    }

    /// Applies a single firing of channel `c`.
    fn fire_one(&mut self, c: usize) {
        let ch = self.channels[c];
        debug_assert!(self.counts[ch.src] > 0, "firing channel with empty source");
        if self.counts[ch.src] > 0 {
            self.counts[ch.src] -= 1;
            self.counts[ch.dst] += 1;
        }
    }

    /// τ-leap across `tau` steps: every non-critical channel fires
    /// `Binomial(τ, rate)` times, clamped to its invariant cap and to source
    /// availability.
    ///
    /// Uses the **midpoint** variant: firing probabilities are re-evaluated
    /// at the deterministic half-step projection of the counts, which makes
    /// the batch second-order accurate in `ε` (a plain explicit leap leaves
    /// an `O(ε)` bias in nonlinear rates — visible as a mis-placed
    /// equilibrium once `n` is large enough that sampling noise falls below
    /// `ε`-scale effects).
    fn leap(&mut self, tau: u64) {
        if tau == 0 {
            return;
        }
        // Half-step projection: counts + (τ/2)·E[Δ], clamped at zero.
        self.pending.fill(0);
        let half = tau as f64 / 2.0;
        for c in 0..self.rates.len() {
            let r = self.rates[c];
            if r <= 0.0 || self.critical[c] {
                continue;
            }
            let ch = self.channels[c];
            let expected = (half * r).round() as i64;
            self.pending[ch.src] -= expected;
            self.pending[ch.dst] += expected;
        }
        for (class, &delta) in self.pending.iter().enumerate() {
            self.mid_counts[class] = (self.counts[class] as i64 + delta).max(0) as u64;
        }
        self.protocol
            .rates(&self.mid_counts, self.n, &mut self.mid_rates);

        self.avail.copy_from_slice(&self.counts);
        self.pending.fill(0);
        for c in 0..self.rates.len() {
            if self.rates[c] <= 0.0 || self.critical[c] {
                continue;
            }
            let r = self.mid_rates[c];
            if !r.is_finite() || r <= 0.0 {
                continue;
            }
            let ch = self.channels[c];
            let cap = self
                .protocol
                .batch_cap(c, &self.counts)
                .min(self.avail[ch.src]);
            if cap == 0 {
                continue;
            }
            let draw = binomial(&mut self.rng, tau, r);
            if draw > cap {
                // Invariant-cap clamp: the τ estimate was too optimistic
                // for this channel (a bias source worth watching).
                pp_obs::obs_count!("dense.batch_cap_clamps", 1);
            }
            let m = draw.min(cap);
            self.avail[ch.src] -= m;
            self.pending[ch.src] -= m as i64;
            self.pending[ch.dst] += m as i64;
        }
        for (class, &delta) in self.pending.iter().enumerate() {
            let updated = self.counts[class] as i64 + delta;
            debug_assert!(updated >= 0, "class {class} went negative");
            self.counts[class] = updated.max(0) as u64;
        }
        self.step += tau;
        self.leap_batches += 1;
        pp_obs::obs_count!("dense.leap_batches", 1);
        pp_obs::obs_value!("dense.leap_tau", tau);
    }

    /// Number of time-steps simulated so far.
    pub fn step_count(&self) -> u64 {
        self.step
    }

    /// The seed this simulator was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Population size `n`.
    pub fn population(&self) -> u64 {
        self.n
    }

    /// The current class counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// The protocol under simulation.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// τ-leap batches executed so far (instrumentation).
    pub fn leap_batches(&self) -> u64 {
        self.leap_batches
    }

    /// Exact single-interaction events executed so far (instrumentation).
    pub fn exact_events(&self) -> u64 {
        self.exact_events
    }

    /// Replaces the class counts (same class universe), recomputing `n` —
    /// the mutation hook behind the [`DenseEngine`](crate::DenseEngine)
    /// adapter's structural surface (churn resets, shocks, population
    /// grow/shrink all reduce to count moves here).
    ///
    /// # Panics
    ///
    /// Panics if the class count differs from the simulator's channel
    /// universe or the new population is smaller than 2.
    pub fn set_counts(&mut self, counts: Vec<u64>) {
        assert_eq!(
            counts.len(),
            self.counts.len(),
            "class universe must not change ({} classes != {})",
            counts.len(),
            self.counts.len()
        );
        let n: u64 = counts.iter().sum();
        assert!(n >= 2, "population needs at least 2 agents");
        self.counts = counts;
        self.n = n;
    }

    /// Consumes the simulator, returning the final class counts.
    pub fn into_counts(self) -> Vec<u64> {
        self.counts
    }

    /// The τ-leap tolerance in force (a snapshot must preserve it: batch
    /// sizing, and therefore the trajectory, depends on it).
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The sequential generator's full state, for the snapshot surface.
    pub(crate) fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Rewinds the complete resume state — counts, clock, seed, generator
    /// position, tolerance — to a snapshot's values. All other fields are
    /// per-batch scratch or cumulative instrumentation, recomputed or
    /// irrelevant to the trajectory. The caller (the `DenseEngine`
    /// restore path) has validated the payload.
    pub(crate) fn restore_raw(
        &mut self,
        counts: Vec<u64>,
        step: u64,
        seed: u64,
        rng_state: [u64; 4],
        epsilon: f64,
    ) {
        debug_assert_eq!(counts.len(), self.counts.len());
        self.n = counts.iter().sum();
        self.counts = counts;
        self.step = step;
        self.seed = seed;
        self.rng = StdRng::from_state(rng_state);
        self.epsilon = epsilon;
    }
}
