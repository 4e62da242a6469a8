//! The shared worker budget behind every parallel helper in this crate.
//!
//! [`replicate`](crate::replicate()) (seed ensembles), `sweep_grid` (job ×
//! seed grids, built on `replicate`) and
//! [`ShardedSimulator`](crate::ShardedSimulator) (graph-partitioned
//! single runs) all want "as many threads as the machine has". Before
//! this module each helper asked `available_parallelism` independently,
//! so *nested* use — a sharded run inside a `replicate` closure, or a
//! `replicate` inside a `sweep_grid` cell — multiplied the thread counts
//! and oversubscribed the box.
//!
//! The fix is one process-wide pool of **worker tokens**, sized to
//! `available_parallelism() − 1` (the caller's own thread is the `+ 1`;
//! override with `PP_POOL_THREADS` for experiments). Every parallel
//! helper [`lease`]s extra workers before spawning, spawns at most what
//! the lease granted, and returns the tokens when the lease drops. A
//! nested helper finds the tokens already taken and falls back to running
//! inline on its caller's thread — which is always correct, because every
//! parallel algorithm in this crate is deterministic and
//! thread-count-independent by construction.
//!
//! Threads that run *borrowed* work are scoped (`std::thread::scope`),
//! not persistent: the crate is `forbid(unsafe_code)`, and lending the
//! non-`'static` closures of `replicate`/`ShardedSimulator::run` to a
//! persistent thread is exactly the lifetime erasure that safe Rust rules
//! out. What is hoisted for them instead is the spawn *frequency*:
//! `ShardedSimulator` spawns once per `run()` call and keeps its workers
//! parked on channels across every block of the run, and `replicate`
//! spawns once per ensemble — never once per seed or per block. Work that
//! is *owned* can go to persistent threads: `pp-serve`'s jobs own their
//! engines (`Box<dyn Engine + Send>`), which move to a worker by value and
//! back, so the server spawns its round workers once per server run,
//! parks them between rounds, and still leases tokens here per round —
//! a round hands work to no more parked workers than its lease grants.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

fn budget() -> &'static AtomicUsize {
    static TOKENS: OnceLock<AtomicUsize> = OnceLock::new();
    TOKENS.get_or_init(|| AtomicUsize::new(parallelism().saturating_sub(1)))
}

/// The machine parallelism this pool budgets for: `PP_POOL_THREADS` if
/// set, else `std::thread::available_parallelism()`.
///
/// # Panics
///
/// Panics if `PP_POOL_THREADS` is set to anything other than a positive
/// integer — the same fail-fast convention as `PP_PRESET`/`PP_ENGINE`/
/// `PP_OBS`, instead of silently falling back to the machine default.
pub fn parallelism() -> usize {
    static PAR: OnceLock<usize> = OnceLock::new();
    *PAR.get_or_init(|| match std::env::var("PP_POOL_THREADS") {
        Ok(v) => match v.parse::<usize>() {
            Ok(p) if p >= 1 => p,
            _ => panic!("PP_POOL_THREADS must be a positive integer thread count, got `{v}`"),
        },
        Err(_) => std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1),
    })
}

/// A grant of extra worker threads from the shared budget; tokens return
/// to the pool when the lease drops.
#[derive(Debug)]
pub struct Lease {
    granted: usize,
}

impl Lease {
    /// Number of *extra* worker threads this lease allows the holder to
    /// spawn (the holder's own thread comes on top). May be 0 — the
    /// single-threaded fallback.
    pub fn workers(&self) -> usize {
        self.granted
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        if self.granted > 0 {
            budget().fetch_add(self.granted, Ordering::AcqRel);
        }
    }
}

/// Takes up to `want` extra worker tokens from the shared budget.
///
/// Never blocks: if fewer tokens are free (typically because an outer
/// parallel helper holds them), the lease is smaller — down to zero, the
/// run-inline fallback. Helpers should size `want` as
/// `desired_threads − 1`.
pub fn lease(want: usize) -> Lease {
    let tokens = budget();
    let mut free = tokens.load(Ordering::Acquire);
    loop {
        let take = free.min(want);
        if take == 0 {
            if want > 0 {
                // A helper asked for workers and got none: the nested
                // run-inline degradation the recorder makes visible.
                pp_obs::obs_count!("pool.lease_inline", 1);
            }
            return Lease { granted: 0 };
        }
        match tokens.compare_exchange_weak(free, free - take, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => {
                pp_obs::obs_count!("pool.lease_acquired", 1);
                pp_obs::obs_value!("pool.lease_workers", take);
                return Lease { granted: take };
            }
            Err(now) => free = now,
        }
    }
}

/// Currently un-leased worker tokens; diagnostic only (the value can be
/// stale by the time the caller acts on it — use [`lease`] to claim).
pub fn available_workers() -> usize {
    budget().load(Ordering::Acquire)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The budget is process-global, and sibling tests (replicate,
    // sharded) lease from it concurrently under the parallel test
    // harness; assertions here only use tokens this test itself holds.

    #[test]
    fn lease_grants_at_most_want() {
        // Only the self-held invariant is race-free on the shared global
        // counter; `available_workers()` before/after comparisons would
        // observe tokens sibling tests lease and return concurrently.
        let a = lease(1);
        assert!(a.workers() <= 1);
    }

    #[test]
    fn concurrent_leases_never_oversubscribe() {
        // Tokens are conserved, so however sibling tests interleave, two
        // max-want leases held together can never exceed the budget.
        let a = lease(usize::MAX);
        let b = lease(usize::MAX);
        assert!(
            a.workers() + b.workers() <= parallelism().saturating_sub(1),
            "leases {} + {} exceed budget {}",
            a.workers(),
            b.workers(),
            parallelism().saturating_sub(1)
        );
        drop(b);
        drop(a);
    }

    #[test]
    fn parallelism_is_positive() {
        assert!(parallelism() >= 1);
    }
}
