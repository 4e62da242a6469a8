//! The pool's parked workers, driven through the sharded tier.
//!
//! This file is a test process of its own, so the parked set holds only
//! the workers these tests check out; they take turns through one lock,
//! because which parked worker a call gets is what they check.

use pp_engine::{Engine, PackedProtocol, ShardedSimulator};
use pp_graph::Cycle;
use rand::Rng;
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard};
use std::thread::ThreadId;

/// Threads that ran a transition since the last clear.
static SEEN: Mutex<Vec<ThreadId>> = Mutex::new(Vec::new());

fn turn() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The threads other than this one in [`SEEN`], which is cleared.
fn take_worker_threads() -> HashSet<ThreadId> {
    let caller = std::thread::current().id();
    let mut seen = SEEN.lock().unwrap();
    let workers = seen.iter().copied().filter(|&id| id != caller).collect();
    seen.clear();
    workers
}

/// Records the thread of every transition. Without a mark it mixes the
/// two states, so a misplaced shard changes the final states; with one it
/// keeps every state and panics when the agent holding the mark is
/// scheduled.
#[derive(Debug)]
struct Probe(Option<u32>);

impl PackedProtocol for Probe {
    type State = u32;

    fn pack(&self, s: &u32) -> u32 {
        *s
    }

    fn unpack(&self, p: u32) -> u32 {
        p
    }

    fn transition<R: Rng>(&self, me: u32, observed: &[u32], _rng: &mut R) -> u32 {
        SEEN.lock().unwrap().push(std::thread::current().id());
        match self.0 {
            Some(mark) => {
                assert!(me != mark, "marked agent scheduled");
                me
            }
            None => (me + observed[0] + 1) % 251,
        }
    }

    fn name(&self) -> String {
        "probe".into()
    }
}

fn sim(probe: Probe, n: usize, shards: usize) -> ShardedSimulator<Probe, Cycle, u32> {
    let init: Vec<u32> = (0..n as u32).collect();
    ShardedSimulator::new(probe, Cycle::new(n), &init, 3).with_layout(shards, 32)
}

#[test]
fn consecutive_calls_reuse_one_parked_worker() {
    let _turn = turn();
    let mut s = sim(Probe(None), 96, 2);
    take_worker_threads();
    for _ in 0..200 {
        s.run_with_threads(2048, 2);
    }
    let workers = take_worker_threads();
    assert_eq!(
        workers.len(),
        1,
        "200 two-thread calls ran on {} worker threads",
        workers.len()
    );
    let mut reference = sim(Probe(None), 96, 2);
    reference.run_with_threads(200 * 2048, 1);
    assert_eq!(s.states_packed(), reference.states_packed());
}

#[test]
fn a_resize_after_a_parallel_call_owns_the_topology() {
    let _turn = turn();
    let mut s = sim(Probe(None), 64, 2);
    for i in 0..500 {
        s.run_with_threads(64, 2);
        s.push_agent(&(i % 7));
    }
    assert_eq!(s.len(), 564);
    assert_eq!(s.step_count(), 500 * 64);
}

#[test]
fn a_worker_whose_task_panicked_serves_the_next_call() {
    let _turn = turn();
    // Agent 30 is the only holder of state 30 (the marked protocol keeps
    // every state) and lives in shard 1 of 4, which two-thread dealing
    // hands to the worker.
    let mut bad = sim(Probe(Some(30)), 96, 4);
    take_worker_threads();
    let payload = catch_unwind(AssertUnwindSafe(|| bad.run_with_threads(100_000, 2)))
        .expect_err("the marked agent must be scheduled");
    assert_eq!(
        payload.downcast_ref::<&str>(),
        Some(&"marked agent scheduled")
    );
    let failed = take_worker_threads();
    assert_eq!(failed.len(), 1);

    let mut good = sim(Probe(None), 96, 4);
    good.run_with_threads(2048, 2);
    assert_eq!(good.step_count(), 2048);
    assert_eq!(
        take_worker_threads(),
        failed,
        "the next call must run on the parked worker whose task panicked"
    );
}
