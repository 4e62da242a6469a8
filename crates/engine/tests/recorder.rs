//! The sharded tier's recorder tallies, read back from a live recorder.
//!
//! This file is a test process of its own, so it can select the `json`
//! sink before anything touches the recorder (`PP_OBS` is read once per
//! process). One test function runs both read modes in turn, because the
//! counters are process-global.

use pp_engine::{PackedProtocol, ReadMode, ShardedSimulator};
use pp_graph::{Complete, Cycle};
use rand::Rng;

/// Voter dynamics over raw `u32` labels.
#[derive(Debug)]
struct Copy1;

impl PackedProtocol for Copy1 {
    type State = u32;

    fn pack(&self, s: &u32) -> u32 {
        *s
    }

    fn unpack(&self, p: u32) -> u32 {
        p
    }

    fn transition<R: Rng>(&self, _me: u32, observed: &[u32], _rng: &mut R) -> u32 {
        observed[0]
    }

    fn name(&self) -> String {
        "copy".into()
    }
}

fn counter(name: &str) -> u64 {
    pp_obs::dump()
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |&(_, v)| v)
}

#[test]
fn sharded_tallies_account_for_every_granted_step() {
    std::env::set_var("PP_OBS", "json");
    assert!(pp_obs::enabled(), "PP_OBS=json must switch the recorder on");
    let init: Vec<u32> = (0..96).collect();
    let steps = 32 * 100;

    // Defer mode, run to a block boundary: every granted step is applied
    // in its segment or deferred, and the merge applies every deferred one.
    let mut defer =
        ShardedSimulator::<_, _, u32>::new(Copy1, Cycle::new(96), &init, 5).with_layout(4, 32);
    assert_eq!(defer.read_mode(), ReadMode::Defer);
    defer.run(steps);
    let granted = counter("sharded.granted");
    let deferred = counter("sharded.deferred");
    assert_eq!(granted, steps);
    assert_eq!(counter("sharded.local_applied") + deferred, granted);
    assert!(deferred > 0, "a 4-shard cycle must defer some interactions");
    assert_eq!(counter("sharded.merged"), deferred);

    // Snapshot mode on a strided partition: remote partners are read from
    // the block-start copy, and every step applies in its segment.
    pp_obs::reset();
    let mut snapshot =
        ShardedSimulator::<_, _, u32>::new(Copy1, Complete::new(96), &init, 5).with_layout(4, 32);
    assert_eq!(snapshot.read_mode(), ReadMode::Snapshot);
    snapshot.run(steps);
    assert_eq!(counter("sharded.granted"), steps);
    assert_eq!(counter("sharded.local_applied"), steps);
    assert!(counter("sharded.snapshot_reads") > 0);
}
