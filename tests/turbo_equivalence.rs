//! Turbo-vs-packed statistical equivalence, protocol × topology family.
//!
//! The turbo engine's counter-based batched randomness must simulate the
//! same Markov chain as the bit-exact engines. For every protocol
//! (Diversification + the four consensus baselines) on every topology
//! family (complete, ring, torus, random-regular), the packed and turbo
//! engines run the shared 48-seed ensemble through the battery in
//! `tests/common` (chi-square, KS and moment checks under one
//! Bonferroni-corrected threshold).

mod common;

use common::{family_battery, Candidate, Protocol};

#[test]
fn diversification_turbo_matches_packed_on_all_families() {
    family_battery(Protocol::Diversification, Candidate::Turbo).assert_pass();
}

#[test]
fn voter_turbo_matches_packed_on_all_families() {
    family_battery(Protocol::Voter, Candidate::Turbo).assert_pass();
}

#[test]
fn two_choices_turbo_matches_packed_on_all_families() {
    family_battery(Protocol::TwoChoices, Candidate::Turbo).assert_pass();
}

#[test]
fn three_majority_turbo_matches_packed_on_all_families() {
    family_battery(Protocol::ThreeMajority, Candidate::Turbo).assert_pass();
}

#[test]
fn anti_voter_turbo_matches_packed_on_all_families() {
    family_battery(Protocol::AntiVoter, Candidate::Turbo).assert_pass();
}
