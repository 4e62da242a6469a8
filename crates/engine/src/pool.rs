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
//! helper [`lease`]s extra workers before it starts any, uses at most
//! what the lease granted, and returns the tokens when the lease drops. A
//! nested helper finds the tokens already taken and falls back to running
//! inline on its caller's thread — which is always correct, because every
//! parallel algorithm in this crate is deterministic and
//! thread-count-independent by construction.
//!
//! The pool also owns the process's only set of **parked worker
//! threads**. A call that has owned, `'static` work checks out a [`Crew`]
//! of up to its lease's worth of them, sends them tasks for as long as the
//! call lasts, and returns them to the parked set when the crew drops; a
//! thread is spawned only when no parked worker is free. The sharded
//! tier's block segments (its protocol, topology and partition sit behind
//! `Arc`s, its shards move by value) and `pp-serve`'s round slices (each
//! job owns its engine) are such work. Borrowed work cannot go to a
//! persistent thread — the crate is `forbid(unsafe_code)`, and lending a
//! non-`'static` closure to one is exactly the lifetime erasure safe Rust
//! rules out — so it runs on scoped threads (`std::thread::scope`) instead.
//! Only [`replicate`](crate::replicate()), whose closures borrow
//! (`F: Fn + Sync`), still does, spawning once per ensemble.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Mutex, OnceLock};

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
    /// use (the holder's own thread comes on top). May be 0 — the
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

/// Owned work for a parked worker.
type Task = Box<dyn FnOnce() + Send>;

/// The parked workers, each the sender of its thread's task channel. The
/// set never drops a sender, so a worker's thread lives as long as the
/// process, blocked on its channel while parked.
static PARKED: Mutex<Vec<Sender<Task>>> = Mutex::new(Vec::new());

fn spawn_worker() -> Sender<Task> {
    let (tx, rx) = channel::<Task>();
    // Detached: every task catches its own panic, so the thread outlives
    // them all and there is nothing to join.
    std::thread::Builder::new()
        .name("pp-pool-worker".into())
        .spawn(move || rx.into_iter().for_each(|task| task()))
        .expect("cannot spawn a pool worker thread");
    pp_obs::obs_count!("pool.workers_spawned", 1);
    tx
}

/// Parked workers checked out for the length of one call. Worker `k` is
/// the same thread for the crew's whole life, so work dealt by index
/// meets the same thread every time. Dropping the crew waits for the
/// tasks still running, then parks its workers again, idle.
pub struct Crew<R> {
    workers: Vec<Sender<Task>>,
    done_tx: Sender<std::thread::Result<R>>,
    done: Receiver<std::thread::Result<R>>,
    pending: usize,
}

impl<R: Send + 'static> Crew<R> {
    /// Checks out `n` workers, the most recently parked first, spawning
    /// only those the parked set lacks. Takes no tokens: size `n` from a
    /// [`Lease`] or an explicit thread count.
    pub fn check_out(n: usize) -> Crew<R> {
        let mut workers = Vec::with_capacity(n);
        if n > 0 {
            let mut parked = PARKED
                .lock()
                .expect("the parked set is never left mid-update");
            let keep = parked.len().saturating_sub(n);
            workers.extend(parked.drain(keep..));
        }
        workers.resize_with(n, spawn_worker);
        let (done_tx, done) = channel();
        Crew {
            workers,
            done_tx,
            done,
            pending: 0,
        }
    }

    /// Number of workers checked out; the caller's thread comes on top.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Hands `task` to worker `k` (panics if `k >= self.workers()`). The
    /// task's captures drop before its result is reported, so no `Arc` it
    /// cloned is still held once [`recv`](Self::recv) has returned it.
    pub fn send(&mut self, k: usize, task: impl FnOnce() -> R + Send + 'static) {
        let done = self.done_tx.clone();
        self.workers[k]
            .send(Box::new(move || {
                // Fails only if the crew is gone, and a crew drains every
                // pending result before it drops its receiver.
                let _ = done.send(std::panic::catch_unwind(AssertUnwindSafe(task)));
            }))
            .expect("a pool worker outlives its tasks");
        self.pending += 1;
    }

    /// Waits for the next task to finish and returns its result, in
    /// completion order. A task's panic is raised again here with its
    /// original payload; the worker that ran it lives on.
    pub fn recv(&mut self) -> R {
        assert!(self.pending > 0, "no task pending on this crew");
        self.pending -= 1;
        match self.done.recv().expect("the crew holds a sender") {
            Ok(result) => result,
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
}

impl<R> Drop for Crew<R> {
    fn drop(&mut self) {
        // Tasks still running when the caller unwinds (a sibling's panic
        // was re-raised) finish first, so the workers park idle and have
        // dropped the caller's `Arc` clones before it goes on.
        for _ in 0..self.pending {
            let _ = self.done.recv();
        }
        if !self.workers.is_empty() {
            // A `Vec` append or drain leaves the set valid at every step,
            // so a poisoned lock is still sound, and Drop must not panic.
            let mut parked = PARKED.lock().unwrap_or_else(|e| e.into_inner());
            parked.append(&mut self.workers);
        }
    }
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
