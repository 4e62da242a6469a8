//! Sharded-vs-packed statistical equivalence, protocol × topology family.
//!
//! The graph-partitioned engine's shard decomposition — per-shard counter
//! streams plus the deterministic block-boundary merge of cross-shard
//! interactions — must simulate the same Markov chain as the bit-exact
//! engines. For every protocol (Diversification + the four consensus
//! baselines) on every topology family (complete, ring, torus,
//! random-regular), the packed engine and a `ShardedSimulator` with 4
//! shards run the shared 48-seed ensemble through the battery in
//! `tests/common`.
//!
//! The suite deliberately includes the **complete graph**, the hardest
//! case for both cross-shard read relaxations: its strided partition
//! sends ~3/4 of interactions cross-shard, through the boundary merge
//! (`ReadMode::Defer`) or block-start snapshot reads
//! (`ReadMode::Snapshot`, the strided default — so the family battery
//! exercises snapshot reads on the complete graph and the merge on the
//! contiguous families, and `snapshot_reads_match_packed_on_high_cut_families`
//! adds the explicit snapshot-mode battery on complete + expander). The
//! harness's power is demonstrated twice: the canonical reconciliation
//! bug (each queued interaction applied twice,
//! `boundary_double_count_bug_is_rejected`) and the canonical
//! count-split bug (one granted step per block migrated between shards,
//! `split_off_by_one_bug_is_rejected`) must both be rejected at
//! `p < 10⁻⁶`.
//!
//! The sharded trajectories are a function of `(seed, shards, block,
//! read mode)` only — never of thread count — so the suite is
//! deterministic on any machine.

mod common;

use common::{
    assert_rejected_below_1e6, colour0_extinct, consensus, diversification, families,
    family_battery, Candidate, Cell, FamilyTopo, Inject, Protocol, BLOCK, DIVERSIFICATION_STATS, N,
};
use pp_baselines::Voter;
use pp_engine::ReadMode;
use pp_graph::Complete;
use pp_stats::EquivalenceSuite;

#[test]
fn diversification_sharded_matches_packed_on_all_families() {
    family_battery(Protocol::Diversification, Candidate::SHARDED).assert_pass();
}

#[test]
fn voter_sharded_matches_packed_on_all_families() {
    family_battery(Protocol::Voter, Candidate::SHARDED).assert_pass();
}

#[test]
fn two_choices_sharded_matches_packed_on_all_families() {
    family_battery(Protocol::TwoChoices, Candidate::SHARDED).assert_pass();
}

#[test]
fn three_majority_sharded_matches_packed_on_all_families() {
    family_battery(Protocol::ThreeMajority, Candidate::SHARDED).assert_pass();
}

#[test]
fn anti_voter_sharded_matches_packed_on_all_families() {
    family_battery(Protocol::AntiVoter, Candidate::SHARDED).assert_pass();
}

#[test]
fn snapshot_reads_match_packed_on_high_cut_families() {
    // The snapshot-read bias battery: on the high-cut families — the
    // complete graph (strided, ~3/4 cut) and a random-regular expander
    // (contiguous numbering, cut ≈ (S−1)/S) — block-start snapshot reads
    // must stay within the O(B/n × cut) staleness bound, i.e.
    // statistically indistinguishable from the bit-exact engine at the
    // harness's resolution. Forcing the mode covers both monomorphized
    // snapshot paths (strided × snapshot and contiguous × snapshot).
    let mut suite = EquivalenceSuite::new("sharded snapshot reads vs packed", 1e-3);
    let candidate = Candidate::Sharded {
        mode: Some(ReadMode::Snapshot),
        block: BLOCK,
        inject: Inject::None,
    };
    for (i, (name, family)) in families(5).into_iter().enumerate() {
        if !matches!(family, FamilyTopo::Complete(_) | FamilyTopo::Csr(_)) {
            continue;
        }
        let cell = Cell {
            label: format!("diversification/{name} [snapshot reads]"),
            cell: 50 + i as u64,
            candidate,
        };
        diversification(&mut suite, &cell, family, &DIVERSIFICATION_STATS[..2]);
    }
    suite.assert_pass();
}

#[test]
fn boundary_double_count_bug_is_rejected() {
    // Power demonstration: with the injected reconciliation bug — every
    // queued boundary interaction applied twice — the harness must
    // reject equivalence at p < 10⁻⁶. The complete graph is used because
    // its strided partition sends ~3/4 of interactions cross-shard, the
    // worst case a real reconciliation bug would corrupt; the read mode
    // is pinned to `Defer` because the merge is the code this bug lives
    // in (the strided default is snapshot reads, which have no merge).
    let mut suite = EquivalenceSuite::new("sharded double-count injection", 1e-3);
    let cell = Cell {
        label: "diversification/complete [double-counted boundaries]".into(),
        cell: 60,
        candidate: Candidate::Sharded {
            mode: Some(ReadMode::Defer),
            block: BLOCK,
            inject: Inject::DoubleCount,
        },
    };
    diversification(
        &mut suite,
        &cell,
        FamilyTopo::Complete(Complete::new(N)),
        &DIVERSIFICATION_STATS[..2],
    );
    assert_rejected_below_1e6(&suite, "double-counted boundary interactions");
}

#[test]
fn split_off_by_one_bug_is_rejected() {
    // Power demonstration for the count-split itself: one granted step
    // per block migrated to shard 0 — totals still sum to the block, so
    // only the *distribution* of work is wrong. A short block makes the
    // relative distortion large (shard 0's expected share of a 4-step
    // block over 4 equal shards is 1, so +1 doubles its activation
    // rate), and on the strided complete graph shard 0 is exactly the
    // agents initialised to colour 0 — voter dynamics turn the rate bias
    // into directional colour-0 extinction the harness must reject at
    // p < 10⁻⁶ (the hit event probes that colour directly).
    let mut suite = EquivalenceSuite::new("sharded split off-by-one injection", 1e-3);
    let cell = Cell {
        label: "voter/complete [off-by-one count split]".into(),
        cell: 61,
        candidate: Candidate::Sharded {
            mode: None,
            block: 4,
            inject: Inject::SplitOffByOne,
        },
    };
    consensus(
        &mut suite,
        &cell,
        FamilyTopo::Complete(Complete::new(N)),
        Voter,
        colour0_extinct,
    );
    assert_rejected_below_1e6(&suite, "the off-by-one count split");
}
