//! Parallel independent-seed replication — work-stealing scalar runs
//! ([`replicate`]) and the lane-packed ensemble front-end
//! ([`replicate_vec`]).

use crate::pool;
use crate::{PackedProtocol, TurboWord, VecSimulator};
use pp_graph::Topology;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `f(seed)` for every seed, in parallel across available cores, and
/// returns the results in seed order.
///
/// The paper's guarantees are "with high probability"; experiments check
/// them by replicating a measurement over independent seeds and reporting
/// the spread. `f` must be deterministic given its seed for the results to
/// be reproducible.
///
/// Work is distributed by an atomic claim index rather than contiguous
/// chunks: each worker repeatedly claims the next unclaimed seed. When
/// per-seed costs are heterogeneous — a cycle run takes far longer than a
/// complete-graph run in the topology sweeps — chunking leaves threads idle
/// behind the slowest chunk, while stealing keeps all cores busy until the
/// queue drains. Results are still returned in seed order.
///
/// Worker threads come from the crate-wide [`pool`] budget and the calling
/// thread claims seeds alongside them, so nested parallelism — a
/// [`ShardedSimulator`](crate::ShardedSimulator) run inside a seed
/// closure, or a `replicate` inside a `sweep_grid` cell — degrades to
/// inline execution instead of oversubscribing the machine.
///
/// # Examples
///
/// ```
/// use pp_engine::replicate;
///
/// let squares = replicate(0..5, |seed| seed * seed);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16]);
/// ```
pub fn replicate<R, F>(seeds: impl IntoIterator<Item = u64>, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(u64) -> R + Sync,
{
    let seeds: Vec<u64> = seeds.into_iter().collect();
    if seeds.is_empty() {
        return Vec::new();
    }
    let lease = pool::lease(seeds.len().saturating_sub(1).min(pool::parallelism() - 1));
    if lease.workers() == 0 {
        return seeds.into_iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let (f, seeds_ref, next_ref) = (&f, &seeds[..], &next);
    let claim_loop = move || {
        let mut local = Vec::new();
        loop {
            let i = next_ref.fetch_add(1, Ordering::Relaxed);
            let Some(&seed) = seeds_ref.get(i) else {
                return local;
            };
            pp_obs::obs_count!("pool.replicate_claims", 1);
            local.push((i, f(seed)));
        }
    };
    let mut indexed: Vec<(usize, R)> = Vec::with_capacity(seeds.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..lease.workers())
            .map(|_| scope.spawn(claim_loop))
            .collect();
        // The caller works the same claim queue instead of idling.
        indexed.extend(claim_loop());
        for h in handles {
            indexed.extend(h.join().expect("replicate worker panicked"));
        }
    });
    indexed.sort_unstable_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

/// Runs an ensemble of independent-seed replicas through the
/// lane-parallel [`VecSimulator`], `L` seeds per step loop, and returns
/// `extract(seed, lane_states_packed)` for every seed, in seed order.
///
/// Seeds are packed into groups of `L` lanes; a remainder group (seed
/// count not divisible by `L`) falls back to one-lane runs through the
/// *same* engine. Every replica's trajectory is the pure function
/// `F(master_seed, seed)` — independent of grouping, lane slot, and `L`
/// (see the [`vec`](crate::vec) module docs) — so the results are
/// byte-identical to running each seed alone, and a seed list produces
/// the same ensemble whether it splits into full groups or not.
///
/// All groups share `master_seed` (it keys each group's schedule walk),
/// so replicas *within one group* are conditionally independent given
/// their shared schedule; harnesses that treat replicas as fully
/// independent samples should spread statistically-paired seeds across
/// groups, or derive one master per group themselves and call
/// [`VecSimulator`] directly.
///
/// Groups are distributed across cores by [`replicate`]'s work-stealing
/// claim loop, so the two parallelism axes — SIMD lanes within a group,
/// cores across groups — compose.
///
/// # Examples
///
/// ```
/// use pp_engine::{replicate_vec, PackedProtocol};
/// use pp_graph::Complete;
/// use rand::Rng;
///
/// #[derive(Debug, Clone)]
/// struct PackedVoter;
///
/// impl PackedProtocol for PackedVoter {
///     type State = u8;
///     fn pack(&self, s: &u8) -> u32 {
///         *s as u32
///     }
///     fn unpack(&self, p: u32) -> u8 {
///         p as u8
///     }
///     fn transition<R: Rng>(&self, _me: u32, observed: &[u32], _rng: &mut R) -> u32 {
///         observed[0]
///     }
///     fn name(&self) -> String {
///         "packed-voter".into()
///     }
/// }
///
/// let init: Vec<u8> = (0..8).collect();
/// // Five seeds through 4-lane groups: one full group + a remainder.
/// let seeds: Vec<u64> = (0..5).collect();
/// let winners = replicate_vec::<_, _, u8, 4, _>(
///     &PackedVoter,
///     &Complete::new(8),
///     &init,
///     7,
///     &seeds,
///     50_000,
///     |_seed, states| states[0],
/// );
/// assert_eq!(winners.len(), 5);
/// ```
#[allow(clippy::too_many_arguments)]
pub fn replicate_vec<P, T, W, const L: usize, R>(
    protocol: &P,
    topology: &T,
    initial: &[P::State],
    master_seed: u64,
    seeds: &[u64],
    steps: u64,
    extract: impl Fn(u64, &[u32]) -> R + Sync,
) -> Vec<R>
where
    P: PackedProtocol + Clone + Sync,
    P::State: Sync,
    T: Topology + Clone + Sync,
    W: TurboWord,
    R: Send,
{
    if seeds.is_empty() {
        return Vec::new();
    }
    let packed: Vec<u32> = initial.iter().map(|s| protocol.pack(s)).collect();
    let groups: Vec<&[u64]> = seeds.chunks(L).collect();
    let extract = &extract;
    let packed = &packed;
    let per_group: Vec<Vec<R>> = replicate(0..groups.len() as u64, |g| {
        let chunk = groups[g as usize];
        pp_obs::obs_count!("vec.ensemble_groups", 1);
        pp_obs::obs_value!("vec.lane_occupancy", chunk.len() as u64);
        if let Ok(lane_seeds) = <[u64; L]>::try_from(chunk) {
            // Full group: L replicas per step loop.
            let mut sim = VecSimulator::<P, T, W, L>::from_packed(
                protocol.clone(),
                topology.clone(),
                packed.clone(),
                master_seed,
                lane_seeds,
            );
            sim.run_batch(steps);
            (0..L)
                .zip(chunk)
                .map(|(l, &seed)| extract(seed, &sim.lane_states_packed(l)))
                .collect()
        } else {
            // Remainder: the same engine at one lane per seed, same
            // master — byte-identical to the seed's full-group trajectory.
            chunk
                .iter()
                .map(|&seed| {
                    let mut sim = VecSimulator::<P, T, W, 1>::from_packed(
                        protocol.clone(),
                        topology.clone(),
                        packed.clone(),
                        master_seed,
                        [seed],
                    );
                    sim.run_batch(steps);
                    extract(seed, &sim.lane_states_packed(0))
                })
                .collect()
        }
    });
    per_group.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_seed_order() {
        let out = replicate(0..100, |s| s * 2);
        assert_eq!(out, (0..100).map(|s| s * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input() {
        let out: Vec<u64> = replicate(std::iter::empty(), |s| s);
        assert!(out.is_empty());
    }

    #[test]
    fn single_seed() {
        assert_eq!(replicate([42], |s| s + 1), vec![43]);
    }

    #[test]
    fn runs_every_seed_exactly_once() {
        let counter = AtomicUsize::new(0);
        let out = replicate(0..64, |s| {
            counter.fetch_add(1, Ordering::SeqCst);
            s
        });
        assert_eq!(counter.load(Ordering::SeqCst), 64);
        assert_eq!(out.len(), 64);
    }

    #[test]
    fn non_contiguous_seeds() {
        let seeds = [5u64, 1, 9, 9, 2];
        let out = replicate(seeds, |s| s);
        assert_eq!(out, seeds);
    }

    #[test]
    fn nested_replicate_degrades_to_inline() {
        // An inner replicate inside a seed closure must not multiply
        // thread counts: whatever the outer call leased, inner calls see a
        // reduced budget and still return correct, ordered results.
        let out = replicate(0..8, |s| {
            let inner = replicate(0..4, move |t| s * 10 + t);
            assert_eq!(inner, (0..4).map(|t| s * 10 + t).collect::<Vec<_>>());
            s
        });
        assert_eq!(out, (0..8).collect::<Vec<_>>());
    }

    /// Voter dynamics for the ensemble front-end tests.
    #[derive(Debug, Clone)]
    struct Copy1;

    impl PackedProtocol for Copy1 {
        type State = u32;

        fn pack(&self, s: &u32) -> u32 {
            *s
        }

        fn unpack(&self, p: u32) -> u32 {
            p
        }

        fn transition<R: rand::Rng>(&self, _me: u32, observed: &[u32], _rng: &mut R) -> u32 {
            observed[0]
        }

        fn name(&self) -> String {
            "copy".into()
        }
    }

    /// Satellite contract: every seed count — divisible by L or not —
    /// produces byte-identical per-seed results vs sequential one-lane
    /// runs, in seed order.
    #[test]
    fn replicate_vec_remainders_match_sequential_scalar() {
        const L: usize = 8;
        let topo = pp_graph::Torus2d::new(5, 8);
        let init: Vec<u32> = (0..40).map(|u| u % 5).collect();
        let master = 77;
        let steps = 4_000;
        for count in [1usize, L - 1, L + 1, 2 * L + 3] {
            let seeds: Vec<u64> = (0..count as u64).map(|s| 1_000 + 3 * s).collect();
            let ensemble = replicate_vec::<_, _, u8, L, _>(
                &Copy1,
                &topo,
                &init,
                master,
                &seeds,
                steps,
                |seed, states| (seed, states.to_vec()),
            );
            assert_eq!(ensemble.len(), count, "count {count}");
            for (i, &seed) in seeds.iter().enumerate() {
                let mut scalar =
                    crate::VecSimulator::<_, _, u8, 1>::new(Copy1, topo, &init, master, [seed]);
                scalar.run_batch(steps);
                assert_eq!(
                    ensemble[i],
                    (seed, scalar.lane_states_packed(0)),
                    "count {count}, seed {seed}"
                );
            }
        }
    }

    #[test]
    fn replicate_vec_empty_seed_list() {
        let init: Vec<u32> = (0..4).collect();
        let out: Vec<u32> = replicate_vec::<_, _, u32, 4, _>(
            &Copy1,
            &pp_graph::Complete::new(4),
            &init,
            0,
            &[],
            100,
            |_, states| states[0],
        );
        assert!(out.is_empty());
    }

    #[test]
    fn heterogeneous_costs_keep_seed_order() {
        // Early seeds are made far more expensive than late ones, so under
        // work-stealing the *completion* order scrambles; the returned
        // order must still match the seed order.
        let out = replicate(0..32, |s| {
            let spins = if s < 4 { 200_000 } else { 10 };
            let mut acc = s;
            for i in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            (s, acc)
        });
        for (i, &(s, _)) in out.iter().enumerate() {
            assert_eq!(s, i as u64);
        }
    }
}
